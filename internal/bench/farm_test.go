package bench

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// smokeArtifact runs a smoke-sized sweep through a farm of the given size
// and returns the artifact bytes with host-time fields zeroed — the exact
// payload the benchdiff gate consumes.
func smokeArtifact(t *testing.T, parallel int) []byte {
	t.Helper()
	farm := NewFarm(parallel)
	defer farm.Close()
	opt := Options{WindowMs: 0.25, Sizes: []int{1024, 16384}, Systems: []string{SysNoIOMMU, SysCopy}, Farm: farm}
	sections := []Section{
		{Name: "fig3", Run: Fig3},
		{Name: "fig4", Run: Fig4},
		{Name: "apimicro", Run: func(o Options) (*Table, error) {
			return APIMicro(Options{Systems: o.Systems, Farm: o.Farm})
		}},
	}
	tables, err := RunSuite(sections, opt, parallel)
	if err != nil {
		t.Fatal(err)
	}
	a := Artifact("farmtest", opt.WindowMs, nil, tables)
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

// TestFarmArtifactDeterminism is the tentpole's contract: the same sweep
// produces byte-identical artifacts at -parallel 1, 4 and GOMAXPROCS.
// Worker count and completion order may change; numbers may not.
func TestFarmArtifactDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison")
	}
	ref := smokeArtifact(t, 1)
	for _, parallel := range []int{4, runtime.GOMAXPROCS(0)} {
		got := smokeArtifact(t, parallel)
		if !bytes.Equal(ref, got) {
			t.Errorf("artifact at parallel=%d differs from serial reference (%d vs %d bytes)",
				parallel, len(got), len(ref))
		}
	}
}

// TestFarmMapOrderAndCoverage checks every point runs exactly once and
// results land at their canonical index.
func TestFarmMapOrderAndCoverage(t *testing.T) {
	farm := NewFarm(4)
	defer farm.Close()
	const n = 100
	out := make([]int, n)
	var ran atomic.Uint64
	err := farm.Map(n, func(i int) error {
		ran.Add(1)
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d points, want %d", ran.Load(), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("point %d landed wrong: %d", i, v)
		}
	}
}

// TestFarmWorkerPanicDrains proves a panicking point cannot wedge the
// pool: Map returns (no deadlock), the panic surfaces as that point's
// error, every other point still runs, and the farm stays usable.
func TestFarmWorkerPanicDrains(t *testing.T) {
	farm := NewFarm(2)
	defer farm.Close()
	const n = 8
	ran := make([]bool, n)
	var mu sync.Mutex
	err := farm.Map(n, func(i int) error {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		if i == 3 {
			panic("synthetic point failure")
		}
		if i == 5 {
			return errors.New("ordinary failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic must surface as an error")
	}
	if !strings.Contains(err.Error(), "point 3 panicked") ||
		!strings.Contains(err.Error(), "synthetic point failure") {
		t.Errorf("panic not attributed to its point: %v", err)
	}
	if !strings.Contains(err.Error(), "ordinary failure") {
		t.Errorf("plain error lost in aggregation: %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("point %d never ran after a sibling panicked", i)
		}
	}
	if farm.Stats().Panics != 1 {
		t.Errorf("panics counter = %d, want 1", farm.Stats().Panics)
	}
	// The pool survives: a follow-up Map completes normally.
	if err := farm.Map(4, func(int) error { return nil }); err != nil {
		t.Fatalf("farm unusable after panic: %v", err)
	}
}

// TestFarmNilAndClosed covers the two serial-fallback paths: a nil farm
// and a closed one both run Map inline with identical semantics.
func TestFarmNilAndClosed(t *testing.T) {
	var nilFarm *Farm
	sum := 0
	if err := nilFarm.Map(5, func(i int) error { sum += i; return nil }); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Errorf("nil farm sum = %d", sum)
	}
	if err := nilFarm.Map(2, func(i int) error {
		if i == 1 {
			panic("nil-farm panic")
		}
		return nil
	}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("nil farm must still convert panics: %v", err)
	}
	nilFarm.Close() // must not crash

	farm := NewFarm(2)
	farm.Close()
	ran := 0
	if err := farm.Map(3, func(i int) error { ran++; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("closed farm ran %d points serially, want 3", ran)
	}
}

// TestFarmStatsAndPublish sanity-checks the scheduler metrics and their
// obs registry publication.
func TestFarmStatsAndPublish(t *testing.T) {
	farm := NewFarm(3)
	defer farm.Close()
	if farm.Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", farm.Workers())
	}
	if (*Farm)(nil).Workers() != 0 {
		t.Error("nil farm must report 0 workers")
	}
	if err := farm.Map(30, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s := farm.Stats()
	if s.Workers != 3 || s.Submitted != 30 || s.Executed != 30 {
		t.Errorf("stats off: %+v", s)
	}
	if s.QueueHWM == 0 || s.QueueHWM > 30 {
		t.Errorf("queue hwm %d out of range", s.QueueHWM)
	}
	if len(s.UtilPct) != 3 {
		t.Errorf("want one utilization sample per worker, got %d", len(s.UtilPct))
	}
	r := obs.NewRegistry()
	farm.Publish(r)
	if r.CounterValue("farm.executed") != 30 {
		t.Errorf("farm.executed = %d in registry", r.CounterValue("farm.executed"))
	}
}

// TestPointSeedDerivation pins the seed-derivation contract: PointSeed is
// a pure function of (base, index), distinct across a sweep, and distinct
// across bases — no shared rand.Rand anywhere.
func TestPointSeedDerivation(t *testing.T) {
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 42, -7} {
		for i := 0; i < 1000; i++ {
			s := PointSeed(base, i)
			if s != PointSeed(base, i) {
				t.Fatalf("PointSeed(%d,%d) not deterministic", base, i)
			}
			key := fmt.Sprintf("base=%d i=%d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
