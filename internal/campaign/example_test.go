package campaign_test

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/trace"
)

// Example traces the paper's §3 attack against Linux-style deferred
// protection with the IOMMU event tracer on. The victim maps and unmaps
// a receive buffer; the unmap defers its IOTLB invalidation, so the
// device's write replayed to the stale IOVA 2us later lands silently
// through the cached translation. Once the OS drains the deferred
// invalidations, the same replay faults.
func Example() {
	t, err := campaign.NewTarget(bench.SysLinuxDefer, 1)
	if err != nil {
		panic(err)
	}
	tr := trace.New(64)
	t.Mach.IOMMU.Trace = tr
	pl, err := campaign.Find("replay-window")
	if err != nil {
		panic(err)
	}
	r, err := t.Attack(pl)
	if err != nil {
		panic(err)
	}
	tr.Dump(os.Stdout)
	fmt.Printf("write landed: %v, closed after flush: %v\n", r.Success, r.Metrics["closed_after_flush"] == 1)
	// Output:
	//        0.000us map    dev 1 iova 0x7ffffffff000 -> phys 0x1000 size 4096 perm w
	//        0.000us unmap  dev 1 iova 0x7ffffffff000 size 4096
	//        2.312us inval  submitted, hw completes at 7012
	//       12.972us fault  dev 1 iova 0x7ffffffff000 want w: not present
	// write landed: true, closed after flush: true
}
