package attack

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
)

// expected encodes the paper's Table 1 security columns as the three
// campaign cells Table1 reads: does subpage-harvest leak, does
// replay-window land, does arbitrary-scan read, and does draining
// deferred invalidations close the replay window (closed_after_flush)?
var expected = map[string]struct {
	subPageLeak  bool
	windowWrite  bool
	arbitrary    bool
	closesWindow bool
}{
	bench.SysNoIOMMU:        {subPageLeak: true, windowWrite: true, arbitrary: true, closesWindow: false},
	bench.SysLinuxStrict:    {subPageLeak: true, windowWrite: false, arbitrary: false, closesWindow: true},
	bench.SysLinuxDefer:     {subPageLeak: true, windowWrite: true, arbitrary: false, closesWindow: true},
	bench.SysIdentityStrict: {subPageLeak: true, windowWrite: false, arbitrary: false, closesWindow: true},
	bench.SysIdentityDefer:  {subPageLeak: true, windowWrite: true, arbitrary: false, closesWindow: true},
	bench.SysCopy:           {subPageLeak: false, windowWrite: false, arbitrary: false, closesWindow: true},
	// Related work (§7): SWIOTLB copies like the paper's design but the
	// device is unconstrained (passthrough), so arbitrary DMA succeeds —
	// "no protection from DMA attacks". Its copying does keep the
	// specific replayed-IOVA write inside the bounce arena.
	bench.SysSWIOTLB: {subPageLeak: false, windowWrite: false, arbitrary: true, closesWindow: true},
	// Self-invalidating hardware: page-granular (leaks sub-page data)
	// with a window bounded by the TTL — still open at the 2us replay,
	// and no software flush exists to close it early (see
	// campaign's TestSelfInvalWindowClosesAtTTL).
	bench.SysSelfInval: {subPageLeak: true, windowWrite: true, arbitrary: false, closesWindow: false},
}

// cells runs Table 1's three attack cells against one backend.
func cells(t *testing.T, sys string) (leak, window, scan campaign.Result) {
	t.Helper()
	run := func(payload string) campaign.Result {
		r, err := campaign.Run(sys, payload, 1)
		if err != nil {
			t.Fatalf("%s vs %s: %v", payload, sys, err)
		}
		return r
	}
	return run("subpage-harvest"), run("replay-window"), run("arbitrary-scan")
}

func TestAttackMatrixMatchesTable1(t *testing.T) {
	for _, sys := range bench.ExtendedSystems {
		want, ok := expected[sys]
		if !ok {
			t.Errorf("%s has no expected Table 1 row", sys)
			continue
		}
		leak, window, scan := cells(t, sys)
		if leak.Success != want.subPageLeak {
			t.Errorf("%s: sub-page leak = %v, want %v", sys, leak.Success, want.subPageLeak)
		}
		if window.Success != want.windowWrite {
			t.Errorf("%s: window write = %v, want %v", sys, window.Success, want.windowWrite)
		}
		if scan.Success != want.arbitrary {
			t.Errorf("%s: arbitrary read = %v, want %v", sys, scan.Success, want.arbitrary)
		}
		if closed := window.Metrics["closed_after_flush"] == 1; closed != want.closesWindow {
			t.Errorf("%s: window closed after flush = %v, want %v", sys, closed, want.closesWindow)
		}
	}
}

func TestOnlyCopyIsFullySecure(t *testing.T) {
	leak, window, scan := cells(t, bench.SysCopy)
	if leak.Success || window.Success || scan.Success {
		t.Errorf("copy must block every attack: leak=%v window=%v scan=%v",
			leak.Success, window.Success, scan.Success)
	}
	if len(leak.Leaked) != 0 {
		t.Errorf("copy leaked %q", leak.Leaked)
	}
	// Every attack attempt against copy should have faulted or landed in
	// quarantined shadow memory; the arbitrary scan must fault.
	if scan.Metrics["faults"] == 0 {
		t.Error("expected the arbitrary-scan fault to be recorded")
	}
}

func TestNoIOMMUIsDefenseless(t *testing.T) {
	leak, window, scan := cells(t, bench.SysNoIOMMU)
	if !leak.Success || !window.Success || !scan.Success {
		t.Errorf("no-iommu must lose every attack: leak=%v window=%v scan=%v",
			leak.Success, window.Success, scan.Success)
	}
	if string(leak.Leaked) != string(campaign.Secret) {
		t.Errorf("no-iommu leak should recover the exact secret, got %q", leak.Leaked)
	}
	if faults := leak.Metrics["faults"] + window.Metrics["faults"] + scan.Metrics["faults"]; faults != 0 {
		t.Errorf("no-iommu should never fault, got %v", faults)
	}
}

func TestTable1CopyIsTheOnlyAllYesRow(t *testing.T) {
	rows, table, err := Table1(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bench.AllSystems) {
		t.Fatalf("rows = %d", len(rows))
	}
	allYes := 0
	for _, r := range rows {
		ok := r.SubPageProtect && r.NoVulnWindow && r.SingleCorePerf && r.MultiCorePerf
		if ok {
			allYes++
			if r.System != bench.SysCopy {
				t.Errorf("%s unexpectedly passes every column", r.System)
			}
		}
		if r.System == bench.SysCopy && !ok {
			t.Errorf("copy must pass every Table 1 column: %+v", r)
		}
		// Strict designs close the window; deferred ones do not.
		switch r.System {
		case bench.SysIdentityStrict, bench.SysLinuxStrict:
			if !r.NoVulnWindow || r.MultiCorePerf {
				t.Errorf("%s: want window closed + multicore collapse: %+v", r.System, r)
			}
		case bench.SysIdentityDefer, bench.SysLinuxDefer:
			if r.NoVulnWindow || r.SubPageProtect {
				t.Errorf("%s: deferred page-granular design misclassified: %+v", r.System, r)
			}
		}
	}
	if allYes != 1 {
		t.Errorf("exactly one all-yes row expected (copy), got %d", allYes)
	}
	if len(table.Rows) != len(rows) {
		t.Error("rendered table row count mismatch")
	}
}
