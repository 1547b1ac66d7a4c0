package bench

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFarmTable checks the diff-exempt farm.* observability table that
// cmd/reproduce appends to its artifacts: every metric must carry the
// "farm." prefix (the report diff's exemption key) and reflect the
// stats snapshot.
func TestFarmTable(t *testing.T) {
	fs := obs.FarmStats{Workers: 4, Submitted: 30, Executed: 30, Steals: 3,
		QueueHWM: 12, UtilPct: []float64{100, 80, 60, 40}}
	tbl := FarmTable(fs)
	if len(tbl.Series) != 1 || len(tbl.Series[0].Points) != 1 {
		t.Fatalf("want 1 series with 1 point, got %+v", tbl.Series)
	}
	m := tbl.Series[0].Points[0].Metrics
	for name := range m {
		if !strings.HasPrefix(name, "farm.") {
			t.Errorf("metric %q lacks the diff-exempt farm. prefix", name)
		}
	}
	if m["farm.workers"] != 4 || m["farm.executed"] != 30 || m["farm.steals"] != 3 {
		t.Errorf("counter metrics wrong: %v", m)
	}
	if got := m["farm.mean_util_pct"]; got != 70 {
		t.Errorf("mean util = %v, want 70", got)
	}
	if tbl.String() == "" {
		t.Error("table renders empty")
	}
}

// fig1extArtifact runs the full Fig1Extended sweep (six systems x
// {1,4,16,64,128} cores) through a farm of the given size and returns the
// artifact bytes with host-time fields zeroed.
func fig1extArtifact(t *testing.T, parallel int) []byte {
	t.Helper()
	farm := NewFarm(parallel)
	defer farm.Close()
	opt := Options{WindowMs: 0.25, Farm: farm}
	tables, err := RunSuite([]Section{{Name: "fig1ext", Run: Fig1Extended}}, opt, parallel)
	if err != nil {
		t.Fatal(err)
	}
	a := Artifact("scaletest", opt.WindowMs, nil, tables)
	for i := range a.Experiments {
		a.Experiments[i].WallMs = 0
	}
	a.CreatedAt = ""
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFig1ExtendedDeterminism is the scale-out payoff's contract: the
// 64/128-core sweep — the heaviest users of the sharded IOVA index, the
// Meta arenas and the baton dispatch — produces byte-identical artifacts
// at -parallel 1, 4 and GOMAXPROCS. Under `go test -race` this is also
// the farmed-parallel race check for those sharded structures: four real
// worker goroutines each drive full 128-core machines concurrently.
func TestFig1ExtendedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison")
	}
	ref := fig1extArtifact(t, 1)
	for _, parallel := range []int{4, runtime.GOMAXPROCS(0)} {
		got := fig1extArtifact(t, parallel)
		if !bytes.Equal(ref, got) {
			t.Errorf("fig1ext artifact at parallel=%d differs from serial reference (%d vs %d bytes)",
				parallel, len(got), len(ref))
		}
	}
}
