package runspec

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/report"
	"repro/internal/tenant"
)

// Execute runs one normalized spec with its sweep points on farm (nil
// runs them serially on the calling goroutines) and returns the artifact.
// ctx cancels queued sweep points; points already executing finish
// (simulations are not interruptible mid-point), so cancellation is
// prompt but not instant. When a reproduce run fails, the returned
// artifact still holds every section that completed — a partial
// diagnostic record.
func Execute(ctx context.Context, farm *bench.Farm, spec Spec) (*report.Artifact, error) {
	farm = farm.WithContext(ctx)
	switch spec.Tool {
	case "reproduce":
		return executeReproduce(farm, spec)
	case "chaosbench":
		return executeChaos(farm, spec)
	case "attackbench":
		return executeAttack(farm, spec)
	case "tenantbench":
		return executeTenant(farm, spec)
	}
	return nil, fmt.Errorf("unknown tool %q", spec.Tool)
}

// RunTool is the body of the chaosbench, attackbench and tenantbench
// commands after flag parsing: it runs spec on a farm of parallel
// workers, prints each experiment as a text table unless quiet, and
// writes the artifact to jsonOut when set.
func RunTool(spec Spec, parallel int, jsonOut string, quiet bool, stdout, stderr io.Writer) (*report.Artifact, error) {
	a, err := Run(context.Background(), spec, parallel)
	if err != nil {
		return nil, err
	}
	if !quiet {
		for _, e := range a.Experiments {
			fmt.Fprintln(stdout, e)
		}
	}
	if jsonOut != "" {
		if err := a.WriteFile(jsonOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "%s: wrote %s (%d experiments)\n", spec.Tool, jsonOut, len(a.Experiments))
	}
	return a, nil
}

// Run is the one-shot tools' compute path: it normalizes spec and
// executes it on a fresh farm of parallel workers (<=0 = GOMAXPROCS,
// 1 = no pool: points run serially on the calling goroutines).
func Run(ctx context.Context, spec Spec, parallel int) (*report.Artifact, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	var farm *bench.Farm
	if parallel != 1 {
		farm = bench.NewFarm(parallel)
		defer farm.Close()
	}
	return Execute(ctx, farm, n)
}

// executeReproduce runs the selected sections (Table 1 among them)
// concurrently over the farm, then appends the selected sections'
// cycle tables when asked and the farm's scheduling table.
func executeReproduce(farm *bench.Farm, spec Spec) (*report.Artifact, error) {
	var verdicts []report.AttackVerdict
	sections := spec.sections(&verdicts)
	if spec.CycleReport {
		var cycleTables []bench.Section
		for _, sec := range sections {
			if w := sec.Workload; w != nil {
				cycleTables = append(cycleTables, bench.Section{Name: w.Name, Run: w.CycleTable})
			}
		}
		sections = append(sections, cycleTables...)
	}
	tables, err := bench.RunSuite(sections, bench.Options{WindowMs: spec.WindowMs, Farm: farm}, 0)
	tables = append(tables, bench.FarmTable(farm.Stats()))
	a := bench.Artifact("reproduce", spec.WindowMs, nil, tables)
	a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	a.Attacks = verdicts
	return a, err
}

// executeChaos runs the scenarios on coordinator goroutines sharing the
// farm; the tables land in scenario order.
func executeChaos(farm *bench.Farm, spec Spec) (*report.Artifact, error) {
	cfg := chaos.Config{Seed: spec.Seed, WindowMs: spec.WindowMs,
		Cores: spec.Cores, System: spec.System, Farm: farm}
	run := chaos.Scenarios
	if names := splitList(spec.Scenarios); names != nil {
		run = nil
		for _, name := range names {
			s, err := chaos.Find(name)
			if err != nil {
				return nil, err
			}
			run = append(run, s)
		}
	}
	tables := make([]*bench.Table, len(run))
	errs := make([]error, len(run))
	var wg sync.WaitGroup
	for i, s := range run {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tables[i], errs[i] = s.Run(cfg); errs[i] != nil {
				errs[i] = fmt.Errorf("%s: %v", s.Name, errs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bench.Artifact("chaosbench", spec.WindowMs, cfg.Costs, tables), nil
}

// executeAttack runs the payload x backend success matrix as one
// experiment.
func executeAttack(farm *bench.Farm, spec Spec) (*report.Artifact, error) {
	tb, _, err := campaign.Matrix(campaign.MatrixConfig{
		Seed:     spec.Seed,
		Payloads: splitList(spec.Payloads),
		Systems:  splitList(spec.Systems),
		Farm:     farm,
	})
	if err != nil {
		return nil, err
	}
	return bench.Artifact("attackbench", campaign.CellWindowMs, nil, []*bench.Table{tb}), nil
}

// executeTenant runs the isolation matrix and the tenant-count sweep.
func executeTenant(farm *bench.Farm, spec Spec) (*report.Artifact, error) {
	counts, err := splitInts(spec.Tenants)
	if err != nil {
		return nil, err
	}
	frames, err := splitInts(spec.Frames)
	if err != nil {
		return nil, err
	}
	return tenant.Bench(tenant.BenchConfig{
		Seed:         spec.Seed,
		Schemes:      splitList(spec.Schemes),
		Attacks:      splitList(spec.Attacks),
		TenantCounts: counts,
		FrameSizes:   frames,
		Farm:         farm,
	})
}
