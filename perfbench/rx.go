package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/cycles"
	"repro/internal/report"
)

// rxWindowMs is the window ci/scale-baseline.json was generated at
// (`make scale-smoke`).
const rxWindowMs = 2

// rxCores are the fig1ext core counts the manycore-rx workload runs.
var rxCores = []int{64, 128}

// rxPoint is one manycore-rx sweep point and the fig1ext metrics the
// scale baseline holds for it.
type rxPoint struct {
	sys   string
	cores int
	want  map[string]float64
}

func (p rxPoint) config() bench.Config {
	cfg := bench.DefaultConfig(p.sys, bench.RX, p.cores, 16384)
	cfg.WindowMs = rxWindowMs
	return cfg
}

// name is the point's metric suffix, e.g. "identity_strict.128".
func (p rxPoint) name() string { return fmt.Sprintf("%s.%d", slug(p.sys), p.cores) }

// slug turns a backend name into a metric-name component.
func slug(sys string) string {
	switch sys {
	case bench.SysNoIOMMU:
		return "noiommu"
	case bench.SysIdentityDefer:
		return "identity_defer"
	case bench.SysIdentityStrict:
		return "identity_strict"
	}
	return sys
}

// fig1extMetrics computes a result's fig1ext metrics exactly as
// bench.Fig1Extended does.
func fig1extMetrics(r bench.Result) map[string]float64 {
	return map[string]float64{
		"gbps":           r.Gbps,
		"cpu_pct":        r.CPUPct,
		"spinlock_us_op": r.PerOp[cycles.TagSpinlock],
		"iotlb_hit_rate": r.IOTLBHitRate,
		"rx_drops":       float64(r.RxDrops),
	}
}

// matches reports whether a point's result equals its baseline exactly.
func (p rxPoint) matches(r bench.Result) (bool, string) {
	got := fig1extMetrics(r)
	if len(p.want) != len(got) {
		return false, fmt.Sprintf("baseline has metrics %v", p.want)
	}
	for k, w := range p.want {
		if g, ok := got[k]; !ok || g != w {
			return false, fmt.Sprintf("%s = %v, baseline %v", k, got[k], w)
		}
	}
	return true, ""
}

// rxEnv is the manycore-rx workload: twelve TCP RX points (every backend
// of bench.AllSystems at 64 and 128 simulated cores) on a farm of one
// worker per CPU, submitted in bench.Fig1Extended's order. The points are
// the committed baseline's, so no seed changes them.
type rxEnv struct {
	farm   *bench.Farm
	points []rxPoint
}

// loadRxPoints reads the 64/128-core fig1ext points from the scale
// baseline.
func loadRxPoints(root string) ([]rxPoint, error) {
	base, err := report.Load(filepath.Join(root, "ci", "scale-baseline.json"))
	if err != nil {
		return nil, err
	}
	exp := base.Experiment("fig1ext")
	if exp == nil {
		return nil, fmt.Errorf("ci/scale-baseline.json has no fig1ext experiment")
	}
	var pts []rxPoint
	for _, sys := range bench.AllSystems {
		for _, cores := range rxCores {
			p := rxPoint{sys: sys, cores: cores}
			label := fmt.Sprintf("%d cores", cores)
			for _, s := range exp.Series {
				if s.System != sys {
					continue
				}
				for _, pt := range s.Points {
					if pt.Label == label {
						p.want = pt.Metrics
					}
				}
			}
			if p.want == nil {
				return nil, fmt.Errorf("ci/scale-baseline.json: no fig1ext point %s @ %s", sys, label)
			}
			pts = append(pts, p)
		}
	}
	return pts, nil
}

// setupRx loads the baseline points, starts the farm and runs the
// cheapest point once, so the first timed pass finds a warm heap.
func setupRx(root string, workers int) (*rxEnv, func(), error) {
	pts, err := loadRxPoints(root)
	if err != nil {
		return nil, nil, err
	}
	farm := bench.NewFarm(workers)
	if _, err := bench.Run(pts[0].config()); err != nil {
		farm.Close()
		return nil, nil, fmt.Errorf("manycore-rx warm-up: %w", err)
	}
	return &rxEnv{farm: farm, points: pts}, farm.Close, nil
}

// rxPass runs every point once through fn on the farm and returns the
// results and each point's host milliseconds, in point order.
func (e *rxEnv) rxPass(fn func(i int, cfg bench.Config) (bench.Result, error)) ([]bench.Result, []float64, error) {
	res := make([]bench.Result, len(e.points))
	ms := make([]float64, len(e.points))
	err := e.farm.Map(len(e.points), func(i int) error {
		start := time.Now()
		r, err := fn(i, e.points[i].config())
		d := msSince(start)
		if err != nil {
			return fmt.Errorf("%s: %w", e.points[i].name(), err)
		}
		res[i], ms[i] = r, d
		return nil
	})
	return res, ms, err
}

// checkRx counts one operation per point, failed when the point differs
// from ci/scale-baseline.json.
func (r *run) checkRx(e *rxEnv, res []bench.Result) {
	for i, p := range e.points {
		ok, why := p.matches(res[i])
		r.check(ok, "manycore-rx %s drifted from ci/scale-baseline.json: %s", p.name(), why)
	}
}

func untracedPoint(_ int, cfg bench.Config) (bench.Result, error) { return bench.Run(cfg) }

// runRx measures the manycore-rx workload: whole passes over the twelve
// points until the run's time is up.
func runRx(r *run) error {
	env, closeFn, setup, err := timeSetup(func() (*rxEnv, func(), error) {
		return setupRx(r.root, r.workers)
	})
	if err != nil {
		return err
	}
	defer closeFn()
	r.set("setup_s", "s", setup)

	var passSecs, opMs []float64
	var passMem []memDelta
	for deadline := time.Now().Add(r.seconds); time.Now().Before(deadline); {
		var res []bench.Result
		var ms []float64
		secs, mem, err := timedPass(func() (err error) {
			res, ms, err = env.rxPass(untracedPoint)
			return err
		})
		if err != nil {
			return fmt.Errorf("manycore-rx pass: %w", err)
		}
		r.checkRx(env, res)
		passSecs = append(passSecs, secs)
		passMem = append(passMem, mem)
		opMs = append(opMs, ms...)
	}
	return r.setCommon(passSecs, passMem, opMs)
}
