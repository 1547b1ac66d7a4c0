package campaign

import (
	"fmt"

	"repro/internal/bench"
)

// MatrixConfig parameterizes a campaign sweep.
type MatrixConfig struct {
	Seed int64
	// Payloads defaults to Payloads() (every registered payload).
	Payloads []string
	// Systems defaults to bench.ExtendedSystems (all 8 backends).
	Systems []string
	// Farm fans the cells across workers; nil runs serially. Cells are
	// independent machines seeded by bench.PointSeed, so the artifact is
	// byte-identical at any -parallel setting.
	Farm *bench.Farm
}

// Matrix runs every payload against every backend (one fresh machine
// per cell) and renders the success matrix as a table: the generalized
// Table 1. Results come back in canonical payload-major, system-minor
// order regardless of farm scheduling.
func Matrix(cfg MatrixConfig) (*bench.Table, []Result, error) {
	pls := cfg.Payloads
	if len(pls) == 0 {
		pls = Payloads()
	}
	systems := cfg.Systems
	if len(systems) == 0 {
		systems = bench.ExtendedSystems
	}
	for _, name := range pls {
		if _, err := Find(name); err != nil {
			return nil, nil, err
		}
	}
	for _, s := range systems {
		if !bench.IsSystem(s) {
			return nil, nil, fmt.Errorf("campaign: unknown system %q", s)
		}
	}

	n := len(pls) * len(systems)
	results := make([]Result, n)
	err := cfg.Farm.Map(n, func(i int) error {
		res, err := Run(systems[i%len(systems)], pls[i/len(systems)], bench.PointSeed(cfg.Seed, i))
		results[i] = res
		return err
	})
	if err != nil {
		return nil, results, err
	}

	tb := &bench.Table{
		Name: "campaign",
		Title: fmt.Sprintf("Attack-campaign success matrix (%d payloads x %d backends, seed %d)",
			len(pls), len(systems), cfg.Seed),
		Note:    "BREACH = the attack reached real OS memory or leaked data; ok = the protection held.",
		Columns: append([]string{"payload"}, systems...),
	}
	for pi, name := range pls {
		cells := []string{name}
		for si := range systems {
			if results[pi*len(systems)+si].Success {
				cells = append(cells, "BREACH")
			} else {
				cells = append(cells, "ok")
			}
		}
		tb.AddRow(cells...)
	}
	for si, s := range systems {
		for pi, name := range pls {
			tb.Point(s, name, results[pi*len(systems)+si].Metrics)
		}
	}
	return tb, results, nil
}

// sweepSystems are the backends the replay-window sweep charts: both
// deferred designs, the TTL-bounded self-invalidating IOMMU, and two
// designs that close the window at unmap.
var sweepSystems = []string{bench.SysLinuxDefer, bench.SysIdentityDefer, bench.SysSelfInval, bench.SysLinuxStrict, bench.SysCopy}

// sweepDelaysUs are the sweep's post-unmap replay delays, spanning the
// self-invalidating TTL (20 us) and the deferred-flush timer (10 ms).
var sweepDelaysUs = []float64{1, 10, 100, 1000, 5000, 9000, 11000, 20000}

// WindowSweep charts how long after dma_unmap a replayed device write
// still reaches OS memory — the paper's §3 observation that deferred
// buffers stay device-writable for up to 10 ms. Each (system, delay) is
// one replay-window cell without the flush check, on a fresh machine,
// fanned over farm. Points carry the cell metrics under the system, at
// label "+<delay>us".
func WindowSweep(farm *bench.Farm) (*bench.Table, error) {
	nd := len(sweepDelaysUs)
	results := make([]Result, len(sweepSystems)*nd)
	err := farm.Map(len(results), func(i int) error {
		t, err := NewTarget(sweepSystems[i/nd], 1)
		if err != nil {
			return err
		}
		results[i], err = t.Attack(&replayWindow{delayUs: sweepDelaysUs[i%nd]})
		return err
	})
	if err != nil {
		return nil, err
	}
	tb := &bench.Table{
		Name:    "windowsweep",
		Title:   "Replay-after-unmap window sweep (§3: deferred buffers stay device-writable for up to 10 ms)",
		Note:    "LANDED = a write replayed that long after dma_unmap corrupted reused OS memory.",
		Columns: append([]string{"delay after unmap"}, sweepSystems...),
	}
	for di, d := range sweepDelaysUs {
		cells := []string{sweepLabel(d)}
		for si := range sweepSystems {
			if results[si*nd+di].Success {
				cells = append(cells, "LANDED")
			} else {
				cells = append(cells, "blocked")
			}
		}
		tb.AddRow(cells...)
	}
	for si, s := range sweepSystems {
		for di, d := range sweepDelaysUs {
			tb.Point(s, sweepLabel(d), results[si*nd+di].Metrics)
		}
	}
	return tb, nil
}

// sweepLabel is the WindowSweep row and point label of a replay delay.
func sweepLabel(delayUs float64) string { return fmt.Sprintf("+%gus", delayUs) }
