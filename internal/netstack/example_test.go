package netstack_test

import (
	"bytes"
	"fmt"

	"repro/internal/bench"
	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/sim"
)

// ExampleDriver_firewallTOCTOU is the firewall TOCTOU attack of the
// paper's §3/§4. A compromised NIC delivers innocent packets, then —
// after the OS has unmapped each buffer and the firewall has approved
// it — replays writes to the stale IOVA, swapping in a malicious payload
// before the application consumes it. A replay that lands before the
// check is caught by the firewall; one that lands after it is a breach.
// Under deferred protection breaches get through the still-cached
// translation; under DMA shadowing a replay can only hit a quarantined
// shadow buffer.
func ExampleDriver_firewallTOCTOU() {
	evil := []byte("EVIL")
	for _, sys := range []string{bench.SysIdentityDefer, bench.SysLinuxDefer, bench.SysIdentityStrict, bench.SysCopy} {
		cfg := bench.DefaultConfig(sys, bench.RX, 1, 1500)
		cfg.WindowMs = 2
		mach, err := bench.NewMachine(cfg)
		if err != nil {
			panic(err)
		}
		drv := mach.Driver
		drv.Firewall = func(p *sim.Proc, pkt []byte) bool { return !bytes.Contains(pkt, evil) }
		breaches := 0
		drv.OnDeliver = func(p *sim.Proc, pkt []byte) {
			if bytes.Contains(pkt, evil) {
				breaches++
			}
		}
		// The device remembers every IOVA it is given and replays writes
		// to it shortly after delivering the real packet: right in the
		// window between dma_unmap and consumption.
		mach.NIC.RxDMAHook = func(q int, addr iommu.IOVA, n int) {
			now := mach.Eng.Now()
			for _, delay := range []float64{2, 4, 6, 8} {
				mach.Eng.Schedule(now+cycles.FromMicros(delay), func(uint64) {
					mach.IOMMU.DMAWrite(mach.Env.Dev, addr+8, evil)
				})
			}
		}
		var st netstack.RxStats
		mach.Eng.Spawn("rx", 0, 0, func(p *sim.Proc) {
			if err := drv.SetupQueue(p, 0); err != nil {
				panic(err)
			}
			_ = drv.RunRxStream(p, 0, 1500, &st)
		})
		nic.NewSource(mach.Eng, mach.NIC.Queue(0), cfg.Costs, 1500, 1500, true).Start(0)
		mach.Eng.Run(cycles.FromMillis(cfg.WindowMs))
		mach.Eng.Stop()
		fmt.Printf("%-10s delivered %4d, firewall caught %4d, breaches %3d\n",
			sys, st.Frames, drv.FirewallDrops, breaches)
	}
	// Output:
	// identity-  delivered  930, firewall caught 1068, breaches 930
	// defer      delivered  453, firewall caught 1528, breaches 453
	// identity+  delivered    0, firewall caught 1461, breaches   0
	// copy       delivered 1260, firewall caught  519, breaches   0
}
