package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cycles"
)

func sampleArtifact() *Artifact {
	a := New("test", 1, nil)
	a.Add(Experiment{
		Name:   "fig3",
		Title:  "Figure 3",
		Winner: &Winner{Metric: "gbps"},
		Series: []Series{
			{System: "no iommu", Points: []Point{
				{Label: "1KB", Metrics: map[string]float64{"gbps": 10, "cpu_pct": 90}},
				{Label: "64KB", Metrics: map[string]float64{"gbps": 17.5, "cpu_pct": 99}},
			}},
			{System: "copy", Points: []Point{
				{Label: "1KB", Metrics: map[string]float64{"gbps": 9, "cpu_pct": 92}},
				{Label: "64KB", Metrics: map[string]float64{"gbps": 16, "cpu_pct": 99}},
			}},
			{System: "identity+", Points: []Point{
				{Label: "1KB", Metrics: map[string]float64{"gbps": 5, "cpu_pct": 99}},
				{Label: "64KB", Metrics: map[string]float64{"gbps": 8, "cpu_pct": 99}},
			}},
		},
	})
	a.Attacks = []AttackVerdict{
		{System: "copy", SubPageProtect: true, NoVulnWindow: true, SingleCorePerf: true, MultiCorePerf: true},
		{System: "strict", SubPageProtect: false, NoVulnWindow: true},
	}
	return a
}

func clone(t *testing.T, a *Artifact) *Artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestArtifactRoundTrip(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	if b.Schema != SchemaVersion || b.Tool != "test" || len(b.Experiments) != 1 {
		t.Fatalf("round trip lost data: %+v", b)
	}
	if b.CostModel.Fingerprint != Fingerprint(cycles.Default()) {
		t.Error("fingerprint changed across round trip")
	}
	if len(b.Attacks) != 2 {
		t.Error("attack verdicts lost")
	}
}

func TestValidateRejectsBadArtifacts(t *testing.T) {
	cases := []func(*Artifact){
		func(a *Artifact) { a.Schema = 99 },
		func(a *Artifact) { a.Tool = "" },
		func(a *Artifact) { a.CostModel.Fingerprint = "" },
		func(a *Artifact) { a.Experiments[0].Name = "" },
		func(a *Artifact) { a.Add(Experiment{Name: "fig3"}) }, // duplicate
		func(a *Artifact) { a.Experiments[0].Winner.Metric = "" },
		func(a *Artifact) { a.Experiments[0].Series[0].System = "" },
		func(a *Artifact) { a.Experiments[0].Series[0].Points[0].Label = "" },
		func(a *Artifact) { a.Experiments[0].Series[0].Points[0].Metrics["gbps"] = math.NaN() },
		func(a *Artifact) { a.Attacks[0].System = "" },
	}
	for i, mutate := range cases {
		a := sampleArtifact()
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: bad artifact passed validation", i)
		}
	}
	if err := sampleArtifact().Validate(); err != nil {
		t.Errorf("good artifact rejected: %v", err)
	}
}

func TestFingerprintTracksCostModel(t *testing.T) {
	a := Fingerprint(cycles.Default())
	c := cycles.Default()
	c.IOTLBInvalidateHW++
	if Fingerprint(c) == a {
		t.Error("fingerprint must change when a constant changes")
	}
	if Fingerprint(cycles.Default()) != a {
		t.Error("fingerprint must be deterministic")
	}
}

func TestDiffIdenticalPasses(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	r, err := Diff(a, b, DiffOptions{Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("identical artifacts must pass:\n%s", r)
	}
	if r.Compared == 0 {
		t.Error("no metrics compared")
	}
}

// TestDiffIgnoresHostTime builds two artifacts that differ ONLY in host
// wall-clock records — Artifact.CreatedAt, Experiment.WallMs, and a
// wall_ms metric smuggled into a point — and asserts zero drift. Host
// time varies with machine load and -parallel, so letting it into the
// gate would make every baseline comparison flaky.
func TestDiffIgnoresHostTime(t *testing.T) {
	mkArtifact := func(created string, wallMs, metricWall float64) *Artifact {
		a := sampleArtifact()
		a.CreatedAt = created
		a.Experiments[0].WallMs = wallMs
		for i := range a.Experiments[0].Series {
			for j := range a.Experiments[0].Series[i].Points {
				a.Experiments[0].Series[i].Points[j].Metrics["wall_ms"] = metricWall
			}
		}
		return a
	}
	a := mkArtifact("2026-01-01T00:00:00Z", 120, 3.5)
	b := mkArtifact("2026-06-30T12:34:56Z", 987, 99.9)
	r, err := Diff(a, clone(t, b), DiffOptions{Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || len(r.Changes) != 0 || len(r.Flips) != 0 {
		t.Fatalf("wall-time-only differences must not drift:\n%s", r)
	}
	// A host-time metric missing from B must not count as a regression
	// either (older artifacts predate the metric).
	c := clone(t, b)
	for i := range c.Experiments[0].Series {
		for j := range c.Experiments[0].Series[i].Points {
			delete(c.Experiments[0].Series[i].Points[j].Metrics, "wall_ms")
		}
	}
	r, err = Diff(a, c, DiffOptions{Tol: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || len(r.Missing) != 0 {
		t.Fatalf("missing host-time metric must not fail the gate:\n%s", r)
	}
	// Sanity: the skip is surgical — a real metric moving still fails.
	d := clone(t, b)
	d.Experiments[0].Series[0].Points[0].Metrics["gbps"] = 1
	if r, _ := Diff(a, d, DiffOptions{Tol: 0}); r.OK() {
		t.Fatal("real metric change must still fail")
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	b.Experiments[0].Series[1].Points[1].Metrics["gbps"] = 12 // copy 16 -> 12
	r, err := Diff(a, b, DiffOptions{Tol: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || len(r.Changes) != 1 {
		t.Fatalf("25%% regression must fail:\n%s", r)
	}
	c := r.Changes[0]
	if c.Experiment != "fig3" || c.System != "copy" || c.Metric != "gbps" || c.Rel >= 0 {
		t.Errorf("wrong change: %+v", c)
	}
	// Same delta within tolerance passes.
	b.Experiments[0].Series[1].Points[1].Metrics["gbps"] = 15.5
	r, _ = Diff(a, b, DiffOptions{Tol: 0.10})
	if !r.OK() {
		t.Fatalf("3%% move within 10%% tolerance must pass:\n%s", r)
	}
}

func TestDiffPerMetricTolerance(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	b.Experiments[0].Series[0].Points[0].Metrics["cpu_pct"] = 80 // ~11% move
	r, _ := Diff(a, b, DiffOptions{Tol: 0.05, MetricTol: map[string]float64{"cpu_pct": 0.20}})
	if !r.OK() {
		t.Fatalf("cpu_pct override should allow the move:\n%s", r)
	}
	r, _ = Diff(a, b, DiffOptions{Tol: 0.05})
	if r.OK() {
		t.Fatal("without override the move must fail")
	}
}

func TestDiffFlagsWinnerFlip(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	// copy overtakes no-iommu at 64KB without either metric moving
	// beyond a generous tolerance.
	b.Experiments[0].Series[0].Points[1].Metrics["gbps"] = 15.9
	b.Experiments[0].Series[1].Points[1].Metrics["gbps"] = 16.1
	r, err := Diff(a, b, DiffOptions{Tol: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Flips) != 1 || r.OK() {
		t.Fatalf("winner flip must fail the gate:\n%s", r)
	}
	f := r.Flips[0]
	if f.WinnerA != "no iommu" || f.WinnerB != "copy" || f.Label != "64KB" {
		t.Errorf("wrong flip: %+v", f)
	}
	// With a tie margin the near-tie inversion is suppressed.
	r, _ = Diff(a, b, DiffOptions{Tol: 0.25, TieMargin: 0.05})
	if len(r.Flips) != 0 {
		t.Errorf("near-tie flip should be suppressed by TieMargin:\n%s", r)
	}
}

func TestDiffLowerIsBetterWinner(t *testing.T) {
	a := New("test", 1, nil)
	a.Add(Experiment{
		Name:   "fig9",
		Winner: &Winner{Metric: "lat_us", LowerIsBetter: true},
		Series: []Series{
			{System: "copy", Points: []Point{{Label: "64B", Metrics: map[string]float64{"lat_us": 20}}}},
			{System: "strict", Points: []Point{{Label: "64B", Metrics: map[string]float64{"lat_us": 30}}}},
		},
	})
	b := clone(t, a)
	b.Experiments[0].Series[0].Points[0].Metrics["lat_us"] = 35
	r, _ := Diff(a, b, DiffOptions{Tol: 10}) // huge tol: only the flip should fire
	if len(r.Flips) != 1 || r.Flips[0].WinnerB != "strict" {
		t.Fatalf("lower-is-better flip not detected:\n%s", r)
	}
}

func TestDiffMissingAndNew(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	b.Experiments = nil
	b.Add(Experiment{Name: "other"})
	r, err := Diff(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || len(r.Missing) == 0 {
		t.Fatalf("missing experiment must fail:\n%s", r)
	}
	r, _ = Diff(a, b, DiffOptions{IgnoreMissing: true})
	if !r.OK() {
		t.Fatalf("IgnoreMissing must downgrade:\n%s", r)
	}
}

func TestDiffAttackVerdictChangeIsFlip(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	b.Attacks[0].NoVulnWindow = false
	r, err := Diff(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || len(r.Flips) != 1 || r.Flips[0].Metric != "no_vuln_window" {
		t.Fatalf("attack verdict change must be a flip:\n%s", r)
	}
}

func TestDiffFingerprintMismatchNoted(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	b.CostModel.Fingerprint = "deadbeef"
	r, err := Diff(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "fingerprint") {
			found = true
		}
	}
	if !found {
		t.Error("fingerprint mismatch must be noted")
	}
}

func TestDiffSchemaMismatchErrors(t *testing.T) {
	a := sampleArtifact()
	b := sampleArtifact()
	b.Schema = 2
	if _, err := Diff(a, b, DiffOptions{}); err == nil {
		t.Error("schema mismatch must error")
	}
}

func TestDiffAbsFloor(t *testing.T) {
	a := sampleArtifact()
	b := clone(t, a)
	// Tiny absolute wiggle on a tiny value: 100% relative change.
	a.Experiments[0].Series[0].Points[0].Metrics["other_us"] = 0.001
	b.Experiments[0].Series[0].Points[0].Metrics["other_us"] = 0.002
	r, _ := Diff(a, b, DiffOptions{Tol: 0.10, AbsFloor: 0.01})
	if !r.OK() {
		t.Fatalf("sub-floor change must be ignored:\n%s", r)
	}
	r, _ = Diff(a, b, DiffOptions{Tol: 0.10})
	if r.OK() {
		t.Fatal("without floor the change must be flagged")
	}
}

// TestExperimentBuilders: Point groups points by system in insertion
// order and drops non-finite metrics; AddRow and SetWinner fill the
// human rendering and the claim metric.
func TestExperimentBuilders(t *testing.T) {
	e := &Experiment{Name: "x", Title: "X", Columns: []string{"system", "gbps"}}
	e.SetWinner("lat_us", true)
	e.Point("copy", "1KB", map[string]float64{"gbps": 1, "nan": math.NaN(), "inf": math.Inf(1)})
	e.Point("strict", "1KB", map[string]float64{"gbps": 0.5})
	e.Point("copy", "64KB", map[string]float64{"gbps": 2})
	e.AddRow("copy", "1.0")
	if e.Winner == nil || e.Winner.Metric != "lat_us" || !e.Winner.LowerIsBetter {
		t.Errorf("winner = %+v", e.Winner)
	}
	if len(e.Series) != 2 || e.Series[0].System != "copy" || len(e.Series[0].Points) != 2 ||
		e.Series[0].Points[1].Label != "64KB" {
		t.Fatalf("series = %+v", e.Series)
	}
	if m := e.Series[0].Points[0].Metrics; len(m) != 1 || m["gbps"] != 1 {
		t.Errorf("non-finite metrics kept: %v", m)
	}
	if !strings.Contains(e.String(), "copy    1.0") {
		t.Errorf("row not rendered:\n%s", e.String())
	}
}
