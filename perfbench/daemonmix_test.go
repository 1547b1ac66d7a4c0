package main

import (
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/daemon"
)

func stream(seed int64, n int) []mixReq {
	g := newMixGen(seed)
	var q []mixReq
	for len(q) < n {
		q = append(q, g.next())
	}
	return q
}

func TestMixGenDeterministic(t *testing.T) {
	a, b := stream(7, 500), stream(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators with one seed produced different streams")
	}
	if reflect.DeepEqual(a, stream(8, 500)) {
		t.Fatal("seeds 7 and 8 produced the same stream")
	}
}

func TestMixGenRounds(t *testing.T) {
	g := newMixGen(3)
	warm := map[daemon.RunSpec]bool{}
	for _, s := range warmSet {
		warm[s] = true
	}
	seen := map[daemon.RunSpec]bool{}
	for round := 0; round < 50; round++ {
		kinds := map[string]int{}
		for i := 0; i < roundLen; i++ {
			q := g.next()
			kinds[q.kind]++
			switch q.kind {
			case "warm":
				if !warm[q.spec] || q.noCache {
					t.Fatalf("warm request %+v outside the warm set", q)
				}
			case "recompute":
				if !warm[q.spec] || !q.noCache || q.spec.Tool == "reproduce" {
					t.Fatalf("recompute %+v: want a NoCache deterministic warm spec", q)
				}
			case "first":
				if warm[q.spec] || seen[q.spec] || q.spec.Seed == 1 {
					t.Fatalf("first-seen request %+v repeats a spec", q)
				}
				seen[q.spec] = true
			}
		}
		if want := map[string]int{"warm": roundWarm, "recompute": roundRecompute, "first": roundFirst}; !reflect.DeepEqual(kinds, want) {
			t.Fatalf("round %d has %v, want %v", round, kinds, want)
		}
	}
}

func TestBaselineFor(t *testing.T) {
	bases, err := loadMixBaselines("..")
	if err != nil {
		t.Fatal(err)
	}
	if got := bases.baselineFor(daemon.RunSpec{Tool: "chaosbench", Seed: 1}); got != bases.chaos {
		t.Error("chaosbench seed 1 not held to ci/chaos-baseline.json")
	}
	if got := bases.baselineFor(daemon.RunSpec{Tool: "chaosbench", Seed: 2}); got != nil {
		t.Error("chaosbench seed 2 held to a baseline")
	}
	sub := bases.baselineFor(daemon.RunSpec{Tool: "reproduce", WindowMs: 1, Experiments: "fig1"})
	if sub == nil || len(sub.Experiments) != 1 || sub.Experiments[0].Name != "fig1" || sub.Attacks != nil {
		t.Errorf("reproduce fig1 baseline = %+v, want fig1 alone", sub)
	}
	if len(bases.suite.Experiments) < 2 {
		t.Error("restricting the baseline modified ci/baseline.json's artifact")
	}
}

func TestMixCheckHoldsRepeatsToFirstReply(t *testing.T) {
	bases, err := loadMixBaselines("..")
	if err != nil {
		t.Fatal(err)
	}
	art, err := os.ReadFile("../ci/chaos-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := daemon.RunSpec{Tool: "chaosbench", Seed: 5} // no baseline covers seed 5
	reply := func(cached bool, a []byte) *daemon.Response {
		return &daemon.Response{OK: true, Cached: cached, Key: "k", Artifact: a}
	}
	r := &run{metrics: map[string]metric{}}
	lat := newMixCheck(r, bases).check([]mixRecord{
		{req: mixReq{kind: "first", spec: spec}, ms: 100, resp: reply(false, art)},
		{req: mixReq{kind: "warm", spec: spec}, ms: 1, resp: reply(true, art)},
		{req: mixReq{kind: "warm", spec: spec}, ms: 2, resp: reply(true, append(append([]byte(nil), art...), ' '))},
		{req: mixReq{kind: "warm", spec: spec}, ms: 3, resp: reply(false, art)},
	})
	if r.attempted != 4 || r.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2 (changed bytes, uncached repeat)", r.attempted, r.failed)
	}
	if want := []float64{1, math.Inf(1), math.Inf(1)}; !reflect.DeepEqual(lat.warmMs, want) {
		t.Fatalf("warm latencies %v, want %v: a failed request misses every percentile", lat.warmMs, want)
	}
	if want := []float64{100}; !reflect.DeepEqual(lat.coldMs, want) {
		t.Fatalf("cold latencies %v, want %v", lat.coldMs, want)
	}
}
