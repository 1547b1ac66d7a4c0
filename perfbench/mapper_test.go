package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestTracedRunTransparent holds the traced machine to bench.Run: for
// every backend, the decorated mapper and the replicated assembly change
// no simulated result.
func TestTracedRunTransparent(t *testing.T) {
	for _, sys := range bench.ExtendedSystems {
		cfg := bench.DefaultConfig(sys, bench.RX, 4, 16384)
		cfg.WindowMs = 0.2
		want, err := bench.Run(cfg)
		if err != nil {
			t.Fatalf("%s: bench.Run: %v", sys, err)
		}
		log := &spanLog{epoch: time.Now()}
		got, counts, err := tracedRxRun(cfg, log)
		if err != nil {
			t.Fatalf("%s: tracedRxRun: %v", sys, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced result differs:\n got %+v\nwant %+v", sys, got, want)
		}
		if counts.dispatches == 0 {
			t.Errorf("%s: no engine dispatches counted", sys)
		}
		calls := map[string]int{}
		for _, s := range log.spans {
			calls[s.name]++
			if s.end < s.start {
				t.Errorf("%s: span %s ends before it starts", sys, s.name)
			}
		}
		if calls["sim.run"] != 1 || uint64(calls["dmaapi.map"]) != got.MapperStats.Maps {
			t.Errorf("%s: spans %v, want one sim.run and %d dmaapi.map", sys, calls, got.MapperStats.Maps)
		}
	}
}
