package bench

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
)

func TestTablePointAndExperiment(t *testing.T) {
	tbl := &Table{Name: "x", Title: "X"}
	tbl.SetWinner("gbps", false)
	tbl.Point("copy", "1KB", map[string]float64{"gbps": 1, "bad": nan()})
	tbl.Point("copy", "64KB", map[string]float64{"gbps": 2})
	tbl.Point("strict", "1KB", map[string]float64{"gbps": 0.5})
	e := tbl.Experiment()
	if e.Name != "x" || e.Winner == nil || e.Winner.Metric != "gbps" {
		t.Fatalf("experiment conversion lost fields: %+v", e)
	}
	if len(e.Series) != 2 || len(e.Series[0].Points) != 2 {
		t.Fatalf("series shape wrong: %+v", e.Series)
	}
	if _, ok := e.Series[0].Points[0].Metrics["bad"]; ok {
		t.Error("non-finite metric must be dropped")
	}
	a := report.New("test", 1, nil)
	a.Add(e)
	if err := a.Validate(); err != nil {
		t.Errorf("artifact from table must validate: %v", err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestRunSuiteParallel drives real (tiny) sections through the bounded
// worker pool; `go test -race` makes this a data-race check on the
// concurrent section execution.
func TestRunSuiteParallel(t *testing.T) {
	opt := Options{WindowMs: 0.25, Sizes: []int{1024}, Systems: []string{SysNoIOMMU, SysCopy}}
	sections := []Section{
		{Name: "fig3", Run: Fig3},
		{Name: "fig4", Run: Fig4},
		{Name: "fig9", Run: func(o Options) (*Table, error) { tb, _, err := Fig9(o); return tb, err }},
	}
	tables, err := RunSuite(sections, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables", len(tables))
	}
	for i, tb := range tables {
		if tb == nil {
			t.Fatalf("table %d is nil", i)
		}
		if tb.Name != sections[i].Name {
			t.Errorf("table %d out of order: %q", i, tb.Name)
		}
		if len(tb.Series) == 0 {
			t.Errorf("table %q has no structured series", tb.Name)
		}
	}
	a := Artifact("test", opt.WindowMs, nil, tables)
	if err := a.Validate(); err != nil {
		t.Errorf("suite artifact must validate: %v", err)
	}
}

func TestRunSuitePropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	bang := errors.New("bang")
	sections := []Section{
		{Name: "ok", Run: func(o Options) (*Table, error) { return &Table{Title: "t"}, nil }},
		{Name: "bad", Run: func(o Options) (*Table, error) { return nil, boom }},
		{Name: "worse", Run: func(o Options) (*Table, error) { return nil, bang }},
	}
	tables, err := RunSuite(sections, Options{WindowMs: 0.1}, 2)
	// Every section failure survives the errors.Join aggregation...
	if !errors.Is(err, boom) || !errors.Is(err, bang) {
		t.Fatalf("errors not aggregated: %v", err)
	}
	// ...and the completed tables still come back (nil slots mark the
	// failures), so callers can write a partial diagnostic artifact.
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	if tables[0] == nil || tables[0].Name != "ok" {
		t.Errorf("completed section lost on partial failure: %+v", tables[0])
	}
	if tables[1] != nil || tables[2] != nil {
		t.Errorf("failed sections must have nil tables: %v %v", tables[1], tables[2])
	}
	if a := Artifact("test", 0.1, nil, tables); len(a.Experiments) != 1 {
		t.Errorf("partial artifact should carry the 1 completed experiment, got %d", len(a.Experiments))
	}
}

// TestRunSuiteFullSweep drives every real section — including the
// wrapper closures Suite builds (breakdowns, apimicro, sensitivity) —
// through a shared farm at a tiny window, and validates the artifact.
func TestRunSuiteFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep")
	}
	farm := NewFarm(4)
	defer farm.Close()
	opt := Options{WindowMs: 0.2, Sizes: []int{1024}, Systems: []string{SysNoIOMMU, SysCopy}, Farm: farm}
	sections := Suite(true)
	tables, err := RunSuite(sections, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range tables {
		if tb == nil {
			t.Fatalf("section %q produced no table", sections[i].Name)
		}
	}
	a := Artifact("test", opt.WindowMs, nil, tables)
	if err := a.Validate(); err != nil {
		t.Errorf("full-suite artifact must validate: %v", err)
	}
	if s := farm.Stats(); s.Executed == 0 || s.Executed != s.Submitted {
		t.Errorf("farm did not drain: %+v", s)
	}
}

func TestWriteArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	tbl := &Table{Name: "x", Title: "X"}
	tbl.Point("copy", "1KB", map[string]float64{"gbps": 1})
	if err := WriteArtifact(path, "test", 1, nil, tbl); err != nil {
		t.Fatal(err)
	}
	a, err := report.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Experiments) != 1 || a.CreatedAt == "" {
		t.Errorf("artifact round trip lost data: %+v", a)
	}
}

func TestSuiteCoversAllSections(t *testing.T) {
	names := func(secs []Section) string {
		var out []string
		for _, s := range secs {
			out = append(out, s.Name)
		}
		return strings.Join(out, ",")
	}
	// The base suite is what `make smoke` gates and the paper-suite
	// benchmark runs: it must not change shape.
	const base = "fig1,fig1ext,fig3,fig4,fig5a,fig5b,fig6,fig7,fig8a,fig9,fig10,fig11,memory,apimicro,storage,mixed"
	if got := names(Suite(false)); got != base {
		t.Errorf("Suite(false) = %s, want %s", got, base)
	}
	if got, want := names(Suite(true)), base+",fig8b,memdetail,sensitivity"; got != want {
		t.Errorf("Suite(true) = %s, want %s", got, want)
	}
	workloads := map[string]string{}
	for _, s := range Suite(true) {
		if s.Run == nil {
			t.Errorf("section %q has no runner", s.Name)
		}
		if s.Workload != nil {
			workloads[s.Name] = s.Workload.Name
		}
	}
	want := map[string]string{"fig6": "cycles-mtu", "fig8a": "cycles-64k",
		"fig10": "cycles-rr", "fig11": "cycles-kv", "apimicro": "cycles-micro"}
	if !reflect.DeepEqual(workloads, want) {
		t.Errorf("section workloads = %v, want %v", workloads, want)
	}
}
