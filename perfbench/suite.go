package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/report"
)

// suiteWindowMs is the `make smoke` window: the one ci/baseline.json was
// generated at.
const suiteWindowMs = 1

// suiteEnv is the paper-suite workload: every section of the evaluation
// except the sensitivity study, plus Table 1, on a farm of one worker per
// CPU — the run `make smoke` gates against ci/baseline.json. The suite
// has no seed, so no seed changes it.
type suiteEnv struct {
	farm     *bench.Farm
	sections []bench.Section
	baseline *report.Artifact
}

// setupSuite loads the baseline, starts the farm and runs the Figure 3
// sweep once, so the first timed pass finds a warm heap.
func setupSuite(root string, workers int) (*suiteEnv, func(), error) {
	base, err := report.Load(filepath.Join(root, "ci", "baseline.json"))
	if err != nil {
		return nil, nil, err
	}
	farm := bench.NewFarm(workers)
	if _, err := bench.Fig3(bench.Options{WindowMs: suiteWindowMs, Farm: farm}); err != nil {
		farm.Close()
		return nil, nil, fmt.Errorf("paper-suite warm-up: %w", err)
	}
	return &suiteEnv{farm: farm, sections: bench.Suite(false), baseline: base}, farm.Close, nil
}

// suitePass is one pass of the suite as cmd/reproduce runs it: Table 1
// concurrently with the farmed sections. It returns the artifact and each
// section's host milliseconds (Table 1 under the name "table1").
func (e *suiteEnv) suitePass() (*report.Artifact, map[string]float64, error) {
	type t1out struct {
		rows []attack.Table1Row
		tbl  *bench.Table
		ms   float64
		err  error
	}
	t1ch := make(chan t1out, 1)
	go func() {
		start := time.Now()
		rows, tbl, err := attack.Table1(suiteWindowMs)
		t1ch <- t1out{rows, tbl, msSince(start), err}
	}()
	tables, err := bench.RunSuite(e.sections, bench.Options{WindowMs: suiteWindowMs, Farm: e.farm}, 0)
	t1 := <-t1ch
	if err != nil {
		return nil, nil, err
	}
	if t1.err != nil {
		return nil, nil, t1.err
	}
	ms := map[string]float64{"table1": t1.ms}
	for _, t := range tables {
		ms[t.Name] = t.WallMs
	}
	a := bench.Artifact("reproduce", suiteWindowMs, nil, append([]*bench.Table{t1.tbl}, tables...))
	a.Attacks = attack.Verdicts(t1.rows)
	return a, ms, nil
}

// smokeDiff is the comparison `make smoke` gates with: cmd/benchdiff's
// default tolerances. Diffing at zero tolerance instead reports two
// standing differences at the seed commit (see NOTES.md).
var smokeDiff = report.DiffOptions{Tol: 0.10, TieMargin: 0.02}

// checkSuite diffs a pass's artifact against ci/baseline.json as `make
// smoke` does and counts one operation per section, failed when the diff
// reports anything for it.
func (r *run) checkSuite(e *suiteEnv, a *report.Artifact, sectionMs map[string]float64) {
	rep, err := report.Diff(e.baseline, a, smokeDiff)
	if !r.check(err == nil, "paper-suite diff: %v", err) {
		return
	}
	bad := map[string]bool{}
	for _, c := range rep.Changes {
		bad[c.Experiment] = true
	}
	for _, f := range rep.Flips {
		bad[f.Experiment] = true
	}
	if len(rep.Missing) > 0 {
		r.check(false, "paper-suite missing vs baseline: %v", rep.Missing)
	}
	for name := range sectionMs {
		r.check(!bad[name], "paper-suite section %s drifted from ci/baseline.json:\n%s", name, rep)
	}
}

// runSuite measures the paper-suite workload: whole passes until the
// run's time is up.
func runSuite(r *run) error {
	env, closeFn, setup, err := timeSetup(func() (*suiteEnv, func(), error) {
		return setupSuite(r.root, r.workers)
	})
	if err != nil {
		return err
	}
	defer closeFn()
	r.set("setup_s", "s", setup)

	var passSecs, opMs []float64
	var passMem []memDelta
	for deadline := time.Now().Add(r.seconds); time.Now().Before(deadline); {
		var a *report.Artifact
		var ms map[string]float64
		secs, mem, err := timedPass(func() (err error) {
			a, ms, err = env.suitePass()
			return err
		})
		if err != nil {
			return fmt.Errorf("paper-suite pass: %w", err)
		}
		r.checkSuite(env, a, ms)
		passSecs = append(passSecs, secs)
		passMem = append(passMem, mem)
		for _, v := range ms {
			opMs = append(opMs, v)
		}
	}
	return r.setCommon(passSecs, passMem, opMs)
}
