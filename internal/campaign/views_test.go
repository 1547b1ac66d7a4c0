package campaign_test

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
)

// windowSweep runs the replay-window sweep once for the tests below,
// fanned over a two-worker farm as reproduce runs it.
var windowSweep = sync.OnceValues(func() (*bench.Table, error) {
	farm := bench.NewFarm(2)
	defer farm.Close()
	return campaign.WindowSweep(farm)
})

// landed reports the sweep cell for one backend at one replay delay.
func landed(t *testing.T, sys, label string) bool {
	t.Helper()
	tb, err := windowSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tb.Series {
		if s.System != sys {
			continue
		}
		for _, p := range s.Points {
			if p.Label == label {
				return p.Metrics["success"] == 1
			}
		}
	}
	t.Fatalf("window sweep has no %s point at %s", sys, label)
	return false
}

func TestSelfInvalWindowClosesAtTTL(t *testing.T) {
	// The Basu et al. hardware bounds the replay window to the entry TTL
	// (default 20us here): a 10us replay lands, a 100us replay faults —
	// without any software invalidation.
	if !landed(t, bench.SysSelfInval, "+10us") {
		t.Error("10us replay should land (inside TTL)")
	}
	if landed(t, bench.SysSelfInval, "+100us") || landed(t, bench.SysSelfInval, "+1000us") {
		t.Error("replays past the TTL must fault")
	}
}

func TestDeferredWindowSweepClosesAtTimer(t *testing.T) {
	// Paper §3: deferred buffers stay accessible for up to 10ms.
	if !landed(t, bench.SysLinuxDefer, "+10us") || !landed(t, bench.SysLinuxDefer, "+9000us") {
		t.Error("replays before the 10ms flush should land")
	}
	if landed(t, bench.SysLinuxDefer, "+11000us") {
		t.Error("replay after the 10ms timer flush must fault")
	}
}
