package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cycles"
	"repro/internal/obs"
	"repro/internal/report"
)

// Section is one independently-runnable family of the evaluation (one
// figure, table or extension study).
type Section struct {
	Name string
	Run  func(Options) (*Table, error)
	// Workload, when set, is the run the section is the flagship of:
	// reproduce -cyclereport appends its cycle table and -tracefile
	// records its timeline.
	Workload *Workload
}

// Suite returns the full evaluation in report order — every figure of the
// paper plus this reproduction's extension studies. Sections are
// independent simulations, so RunSuite executes them concurrently. The
// extended suite adds the slow or supplementary sections: Figure 8's TX
// panel, the shadow pool's per-class composition and the sensitivity
// analysis.
func Suite(extended bool) []Section {
	s := []Section{
		{Name: "fig1", Run: Fig1},
		{Name: "fig1ext", Run: Fig1Extended},
		{Name: "fig3", Run: Fig3},
		{Name: "fig4", Run: Fig4},
		{Name: "fig5a", Run: breakdown(RX, 1)},
		{Name: "fig5b", Run: breakdown(TX, 1)},
		{Name: "fig6", Run: Fig6, Workload: mtuWorkload},
		{Name: "fig7", Run: Fig7},
		{Name: "fig8a", Run: breakdown(RX, 16), Workload: rx64kWorkload},
		{Name: "fig9", Run: func(o Options) (*Table, error) { t, _, err := Fig9(o); return t, err }},
		{Name: "fig10", Run: Fig10, Workload: rrWorkload},
		{Name: "fig11", Run: Fig11, Workload: kvWorkload},
		{Name: "memory", Run: MemoryConsumption},
		{Name: "apimicro", Run: func(o Options) (*Table, error) {
			// The microbenchmark covers the related-work systems too and
			// is window-independent (fixed pair count).
			return APIMicro(Options{Systems: ExtendedSystems, Costs: o.Costs, Farm: o.Farm})
		}, Workload: microWorkload},
		{Name: "storage", Run: StorageStudy},
		{Name: "mixed", Run: MixedStudy},
	}
	if extended {
		s = append(s,
			Section{Name: "fig8b", Run: breakdown(TX, 16)},
			Section{Name: "memdetail", Run: MemoryDetail},
			Section{Name: "sensitivity", Run: func(o Options) (*Table, error) {
				// Half the window: 11 cost models x 8 machines is the slow part.
				t, violations, err := Sensitivity(Options{WindowMs: o.window() / 2, Costs: o.Costs, Farm: o.Farm})
				if err != nil {
					return nil, err
				}
				t.Note = fmt.Sprintf("claim flips: %d", violations)
				return t, nil
			}})
	}
	return s
}

// breakdown is the section runner of one Figure 5/8 panel.
func breakdown(dir Direction, cores int) func(Options) (*Table, error) {
	return func(o Options) (*Table, error) {
		t, _, err := Breakdown(dir, cores, o)
		return t, err
	}
}

// RunSuite executes every section's individual data points across a
// bench.Farm of `parallelism` workers (<=0 means GOMAXPROCS) and returns
// the tables in section order. Each section runs on a lightweight
// coordinator goroutine that submits its points (not whole sections) to
// the shared farm, so one slow section (sensitivity: 11 cost models x 8
// machines) no longer pins a worker while the others idle. When
// opt.Farm is already set the caller's pool is used and left open;
// otherwise a fresh pool is created for the call and closed afterwards.
//
// Section failures are aggregated with errors.Join and the completed
// tables are still returned (nil slots mark the failed sections), so
// callers can write a partial diagnostic artifact alongside the error.
func RunSuite(sections []Section, opt Options, parallelism int) ([]*Table, error) {
	if opt.Farm == nil {
		farm := NewFarm(parallelism)
		defer farm.Close()
		opt.Farm = farm
	}
	tables := make([]*Table, len(sections))
	errs := make([]error, len(sections))
	var wg sync.WaitGroup
	for i, sec := range sections {
		i, sec := i, sec
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			t, err := sec.Run(opt)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", sec.Name, err)
				return
			}
			if t.Name == "" {
				t.Name = sec.Name
			}
			t.WallMs = float64(time.Since(start).Microseconds()) / 1000
			tables[i] = t
		}()
	}
	wg.Wait()
	return tables, errors.Join(errs...)
}

// FarmTable packages a farm's scheduling counters as a one-point table
// whose metrics all carry the "farm." prefix. Those metrics are host-time
// observations, so report.Diff exempts them from the regression gate
// (like wall_* / host_*): they ride along in the artifact for
// observability without ever being able to fail a comparison.
func FarmTable(fs obs.FarmStats) *Table {
	var util float64
	for _, u := range fs.UtilPct {
		util += u
	}
	if len(fs.UtilPct) > 0 {
		util /= float64(len(fs.UtilPct))
	}
	t := &Table{
		Name:    "farm",
		Title:   "Farm scheduling stats (host-time, diff-exempt)",
		Columns: []string{"workers", "points", "steals", "queue hwm", "mean util %"},
	}
	t.Point("farm", "stats", map[string]float64{
		"farm.workers":       float64(fs.Workers),
		"farm.submitted":     float64(fs.Submitted),
		"farm.executed":      float64(fs.Executed),
		"farm.steals":        float64(fs.Steals),
		"farm.panics":        float64(fs.Panics),
		"farm.queue_hwm":     float64(fs.QueueHWM),
		"farm.mean_util_pct": util,
	})
	t.AddRow(fmt.Sprintf("%d", fs.Workers), fmt.Sprintf("%d", fs.Executed),
		fmt.Sprintf("%d", fs.Steals), fmt.Sprintf("%d", fs.QueueHWM),
		fmt.Sprintf("%.0f", util))
	return t
}

// Artifact bundles tables into a machine-readable artifact (see
// internal/report). A nil costs means the default calibration.
func Artifact(tool string, windowMs float64, costs *cycles.Costs, tables []*Table) *report.Artifact {
	a := report.New(tool, windowMs, costs)
	for _, t := range tables {
		if t != nil {
			a.Add(*t)
		}
	}
	return a
}

// WriteArtifact stamps and writes tables as an artifact file.
func WriteArtifact(path, tool string, windowMs float64, costs *cycles.Costs, tables ...*Table) error {
	a := Artifact(tool, windowMs, costs, tables)
	a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	return a.WriteFile(path)
}
