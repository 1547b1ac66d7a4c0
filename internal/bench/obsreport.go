package bench

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Cycle-attribution reporting (reproduce -cyclereport) and Chrome trace
// export (reproduce -tracefile): the bench-harness face of internal/obs.
// Each profiled run gets its own Observer (observers are per-engine
// state), and the results render as the same Table/Series schema every
// other experiment uses, so cycle reports flow into -json artifacts and
// benchdiff unchanged.

// Workload is the one simulated run a section is the flagship of. Its
// cycle table (CycleTable) profiles the run once per system; its trace
// (WriteTrace) records the strict system's run as a timeline.
type Workload struct {
	// Name and Title head the cycle table ("cycles-mtu", ...).
	Name, Title string
	// Systems are the systems the cycle table profiles.
	Systems []string
	// run executes the workload for one system under observer o and
	// returns the workload procs' cycle profile.
	run func(system string, opt Options, o *obs.Observer) (*obs.Profile, error)
}

// streamWorkload profiles one netperf STREAM/RR point.
func streamWorkload(name, title string, dir Direction, cores, msgSize int) *Workload {
	return &Workload{Name: name, Title: title, Systems: AllSystems,
		run: func(sys string, opt Options, o *obs.Observer) (*obs.Profile, error) {
			cfg := DefaultConfig(sys, dir, cores, msgSize)
			opt.applyTo(&cfg)
			cfg.Obs = o
			r, err := Run(cfg)
			return r.Profile, err
		}}
}

// The flagship workloads of the profiled sections: the paper's two
// contended receive points (Figures 6 and 8a, where strict and identity+
// pay for invalidation and lock spinning and the copy strategy for copies
// instead), the latency point of Figure 10, the memcached load of Figure
// 11, and the microbenchmark's MTU receive pattern — the paper's §4 cost
// argument with no datapath around the map/unmap pairs.
var (
	mtuWorkload = streamWorkload("cycles-mtu",
		"Cycle attribution: 16-core TCP RX, 1500B messages (Figure 6 point)", RX, 16, 1500)
	rx64kWorkload = streamWorkload("cycles-64k",
		"Cycle attribution: 16-core TCP RX, 64KB messages (Figure 8a point)", RX, 16, 65536)
	rrWorkload = streamWorkload("cycles-rr",
		"Cycle attribution: single-core TCP RR, 64KB messages (Figure 10 point)", RR, 1, 65536)
	kvWorkload = &Workload{Name: "cycles-kv",
		Title:   "Cycle attribution: memcached, 16 instances (Figure 11 workload)",
		Systems: FigureSystems,
		run: func(sys string, opt Options, o *obs.Observer) (*obs.Profile, error) {
			_, p, err := runMemcached(sys, 16, opt.window(), o)
			return p, err
		}}
	microWorkload = &Workload{Name: "cycles-micro",
		Title:   "Cycle attribution: DMA API microbenchmark, " + MicroPatterns[0].Name + " pattern",
		Systems: AllSystems,
		run: func(sys string, _ Options, o *obs.Observer) (*obs.Profile, error) {
			_, p, err := runMicro(sys, MicroPatterns[0], 2000, o)
			return p, err
		}}
)

// profileTable renders per-system profiles as a breakdown-category table:
// one row per category (percent of the workload procs' busy cycles), plus
// attribution coverage and the busy-cycle denominator. The structured
// series carries the same numbers for the artifact schema.
func profileTable(name, title string, systems []string, profs []*obs.Profile) *Table {
	t := &Table{
		Name:    name,
		Title:   title,
		Note:    "percent of workload-proc busy cycles, by span category (internal/obs)",
		Columns: append([]string{"category"}, systems...),
	}
	// Union of categories, ordered by total cycles across systems.
	totals := make(map[string]uint64)
	for _, p := range profs {
		for _, g := range p.Groups() {
			totals[g.Group] += g.Cycles
		}
	}
	groups := make([]string, 0, len(totals))
	for g := range totals {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if totals[groups[i]] != totals[groups[j]] {
			return totals[groups[i]] > totals[groups[j]]
		}
		return groups[i] < groups[j]
	})
	pct := func(p *obs.Profile, cyc uint64) float64 {
		if p == nil || p.TotalBusy == 0 {
			return 0
		}
		return 100 * float64(cyc) / float64(p.TotalBusy)
	}
	for _, g := range groups {
		row := []string{g}
		for _, p := range profs {
			row = append(row, f1(pct(p, p.GroupCycles(g))))
		}
		t.AddRow(row...)
	}
	cov := []string{"attributed %"}
	busy := []string{"busy Mcycles"}
	for i, sys := range systems {
		p := profs[i]
		cov = append(cov, f1(100*p.Coverage()))
		busy = append(busy, f1(float64(p.TotalBusy)/1e6))
		metrics := map[string]float64{
			"coverage":     p.Coverage(),
			"busy_mcycles": float64(p.TotalBusy) / 1e6,
		}
		for _, g := range groups {
			metrics[g+"_pct"] = pct(p, p.GroupCycles(g))
		}
		t.Point(sys, "busy", metrics)
	}
	t.AddRow(cov...)
	t.AddRow(busy...)
	return t
}

// CycleTable profiles the workload once per system, each run on its own
// machine and observer submitted through opt's farm, and folds the
// profiles into a breakdown-category table.
func (w *Workload) CycleTable(opt Options) (*Table, error) {
	systems := w.Systems
	profs := make([]*obs.Profile, len(systems))
	err := opt.farm().Map(len(systems), func(i int) error {
		p, err := w.run(systems[i], opt, obs.New(false))
		if err != nil {
			return fmt.Errorf("%s/%s: %w", w.Name, systems[i], err)
		}
		profs[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return profileTable(w.Name, w.Title, systems, profs), nil
}

// TraceWindowMs bounds traced runs: a couple of simulated milliseconds
// keeps the slice count well under the recorder cap while still showing
// thousands of packets.
const TraceWindowMs = 2

// WriteTrace runs the workload under the strict system with timeline
// recording enabled and writes the Chrome trace-event JSON
// (Perfetto-loadable) to path. The window is clamped to TraceWindowMs.
func (w *Workload) WriteTrace(opt Options, path string) error {
	if opt.WindowMs <= 0 || opt.WindowMs > TraceWindowMs {
		opt.WindowMs = TraceWindowMs
	}
	o := obs.New(true)
	if _, err := w.run(SysLinuxStrict, opt, o); err != nil {
		return err
	}
	return o.WriteTraceFile(path)
}
