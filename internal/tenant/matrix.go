package tenant

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/report"
)

// Window lengths for the two table kinds, in simulated milliseconds.
// Matrix cells need only long enough for every attack phase (the replay
// revocation fires ~30 µs in) plus quarantine/readmit cycles; sweep
// cells run longer so goodput is wire-dominated, not warmup-dominated.
const (
	MatrixWindowMs = 1.0
	SweepWindowMs  = 2.0
)

// MatrixTenants is the per-cell tenant count for isolation cells: small,
// because the verdict is scheme behaviour, not scale (Sweep covers scale).
const MatrixTenants = 16

// MatrixConfig parameterizes the isolation matrix.
type MatrixConfig struct {
	Seed    int64
	Schemes []string // default Schemes()
	Attacks []string // default Attacks()
	// Farm fans the cells across workers; nil runs serially. Cells are
	// independent machines seeded by bench.PointSeed, so the artifact is
	// byte-identical at any -parallel setting.
	Farm *bench.Farm
}

// Matrix mounts every hostile program against every scheme (one fresh
// machine per cell, hostile tenant 0 vs victim tenant 1 of 16) and
// renders the isolation matrix. Results come back in canonical
// attack-major, scheme-minor order regardless of farm scheduling.
func Matrix(cfg MatrixConfig) (*bench.Table, []Result, error) {
	attacks, schemes, err := normalizeAxes(cfg.Attacks, cfg.Schemes)
	if err != nil {
		return nil, nil, err
	}
	n := len(attacks) * len(schemes)
	results := make([]Result, n)
	err = cfg.Farm.Map(n, func(i int) error {
		m, err := NewMachine(Config{
			Scheme:   schemes[i%len(schemes)],
			Attack:   attacks[i/len(schemes)],
			Tenants:  MatrixTenants,
			WindowMs: MatrixWindowMs,
			Seed:     bench.PointSeed(cfg.Seed, i),
		})
		if err != nil {
			return err
		}
		m.Run()
		results[i] = m.Collect()
		return nil
	})
	if err != nil {
		return nil, results, err
	}

	tb := &bench.Table{
		Name: "tenantmatrix",
		Title: fmt.Sprintf("Hostile-tenant isolation matrix (%d attacks x %d schemes, %d tenants, seed %d)",
			len(attacks), len(schemes), MatrixTenants, cfg.Seed),
		Note:    "BREACH = a benign tenant's sentinel memory was corrupted; ok = the scheme contained the hostile tenant.",
		Columns: append([]string{"attack"}, schemes...),
	}
	for ai, attack := range attacks {
		cells := []string{attack}
		for si := range schemes {
			if results[ai*len(schemes)+si].Breached {
				cells = append(cells, "BREACH")
			} else {
				cells = append(cells, "ok")
			}
		}
		tb.AddRow(cells...)
	}
	for si, s := range schemes {
		for ai, attack := range attacks {
			tb.Point(s, attack, results[ai*len(schemes)+si].Metrics)
		}
	}
	return tb, results, nil
}

// SweepConfig parameterizes the isolation-vs-throughput sweep.
type SweepConfig struct {
	Seed    int64
	Schemes []string // default Schemes()
	// TenantCounts defaults to {16, 256, 1024}: per-tenant state must
	// stay O(1) out to thousands of queues.
	TenantCounts []int
	// FrameSizes defaults to {1500, 256, 128}: MTU frames are wire-bound
	// for every scheme; 256 B exposes the copy engine's per-frame CPU as
	// utilization; 128 B saturates the datapath cores, where copy loses
	// goodput and the unquarantined hostile flood costs the unprotected
	// baseline CPU it never gets back.
	FrameSizes []int
	Farm       *bench.Farm
}

// Sweep measures benign goodput, victim goodput, and datapath CPU for
// every scheme x tenant-count x frame-size point with the arbitrary-scan
// hostile tenant mounted throughout — throughput numbers that are only
// comparable because the isolation matrix pins who is actually safe.
func Sweep(cfg SweepConfig) (*bench.Table, []Result, error) {
	_, schemes, err := normalizeAxes(nil, cfg.Schemes)
	if err != nil {
		return nil, nil, err
	}
	counts := cfg.TenantCounts
	if len(counts) == 0 {
		counts = []int{16, 256, 1024}
	}
	frames := cfg.FrameSizes
	if len(frames) == 0 {
		frames = []int{1500, 256, 128}
	}

	type point struct {
		count, frame int
	}
	var pts []point
	for _, f := range frames {
		for _, c := range counts {
			pts = append(pts, point{count: c, frame: f})
		}
	}
	n := len(pts) * len(schemes)
	results := make([]Result, n)
	err = cfg.Farm.Map(n, func(i int) error {
		pt := pts[i/len(schemes)]
		m, err := NewMachine(Config{
			Scheme:    schemes[i%len(schemes)],
			Attack:    AttackScan,
			Tenants:   pt.count,
			FrameSize: pt.frame,
			WindowMs:  SweepWindowMs,
			Seed:      bench.PointSeed(cfg.Seed, i),
		})
		if err != nil {
			return err
		}
		m.Run()
		results[i] = m.Collect()
		return nil
	})
	if err != nil {
		return nil, results, err
	}

	tb := &bench.Table{
		Name: "tenantsweep",
		Title: fmt.Sprintf("Isolation vs throughput: benign goodput (Gb/s) under a hostile tenant, seed %d",
			cfg.Seed),
		Note:    "Hostile tenant mounted (arbitrary-scan flood, 1/4 of wire share) at every point; corrupted_bytes in the series is the isolation check at scale.",
		Columns: append([]string{"tenants x frame"}, schemes...),
	}
	tb.SetWinner("goodput_gbps", false)
	for pi, pt := range pts {
		label := fmt.Sprintf("N=%d/%dB", pt.count, pt.frame)
		cells := []string{label}
		for si := range schemes {
			r := results[pi*len(schemes)+si]
			cells = append(cells, fmt.Sprintf("%.1f", r.Metrics["goodput_gbps"]))
		}
		tb.AddRow(cells...)
		for si, s := range schemes {
			tb.Point(s, label, results[pi*len(schemes)+si].Metrics)
		}
	}
	return tb, results, nil
}

func normalizeAxes(attacks, schemes []string) ([]string, []string, error) {
	if len(attacks) == 0 {
		attacks = Attacks()
	}
	if len(schemes) == 0 {
		schemes = Schemes()
	}
	for _, a := range attacks {
		if _, err := findProgram(a); err != nil {
			return nil, nil, err
		}
	}
	for _, s := range schemes {
		if !IsScheme(s) {
			return nil, nil, fmt.Errorf("tenant: unknown scheme %q", s)
		}
	}
	return attacks, schemes, nil
}

// BenchConfig parameterizes the full tenantbench artifact: the isolation
// matrix plus the throughput sweep.
type BenchConfig struct {
	Seed         int64
	Schemes      []string
	Attacks      []string
	TenantCounts []int
	FrameSizes   []int
	Farm         *bench.Farm
}

// Bench produces the deterministic tenantbench artifact: experiments
// "tenantmatrix" and "tenantsweep". Byte-identical at any farm width.
func Bench(cfg BenchConfig) (*report.Artifact, error) {
	mt, _, err := Matrix(MatrixConfig{
		Seed: cfg.Seed, Schemes: cfg.Schemes, Attacks: cfg.Attacks, Farm: cfg.Farm,
	})
	if err != nil {
		return nil, err
	}
	st, _, err := Sweep(SweepConfig{
		Seed: cfg.Seed, Schemes: cfg.Schemes,
		TenantCounts: cfg.TenantCounts, FrameSizes: cfg.FrameSizes, Farm: cfg.Farm,
	})
	if err != nil {
		return nil, err
	}
	art := report.New("tenantbench", SweepWindowMs, nil)
	art.Add(mt.Experiment())
	art.Add(st.Experiment())
	return art, nil
}
