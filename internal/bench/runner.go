// Package bench assembles complete simulated machines (memory, IOMMU, NIC,
// driver, workload procs) and runs the paper's evaluation workloads,
// producing throughput / CPU / latency / per-packet-breakdown results for
// every protection strategy. The experiment functions regenerate each
// figure of the paper (see DESIGN.md §4 for the index).
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// System names, matching the paper's figure legends.
const (
	SysNoIOMMU        = "no iommu"
	SysCopy           = "copy"
	SysIdentityDefer  = "identity-"
	SysIdentityStrict = "identity+"
	SysLinuxStrict    = "strict"
	SysLinuxDefer     = "defer"
)

// FigureSystems is the four-system comparison used by Figures 3–10.
var FigureSystems = []string{SysNoIOMMU, SysCopy, SysIdentityDefer, SysIdentityStrict}

// AllSystems adds the stock-Linux baselines (Figure 1 / Table 1).
var AllSystems = []string{SysNoIOMMU, SysCopy, SysIdentityDefer, SysIdentityStrict, SysLinuxDefer, SysLinuxStrict}

// Related-work systems beyond the paper's own evaluation (§7): Linux's
// SWIOTLB bounce buffering (copying without protection) and the Basu et
// al. self-invalidating IOMMU hardware proposal.
const (
	SysSWIOTLB   = "swiotlb"
	SysSelfInval = "selfinval"
)

// ExtendedSystems is AllSystems plus the related-work designs.
var ExtendedSystems = append(append([]string{}, AllSystems...), SysSWIOTLB, SysSelfInval)

// IsSystem reports whether name is a known protection backend.
func IsSystem(name string) bool {
	for _, s := range ExtendedSystems {
		if s == name {
			return true
		}
	}
	return false
}

// Direction selects the workload.
type Direction int

// Workload directions.
const (
	RX Direction = iota // netperf TCP_STREAM, evaluated machine receives
	TX                  // netperf TCP_STREAM, evaluated machine transmits
	RR                  // netperf TCP_RR request/response
)

func (d Direction) String() string {
	switch d {
	case RX:
		return "RX"
	case TX:
		return "TX"
	case RR:
		return "RR"
	}
	return "?"
}

// Config describes one benchmark run.
type Config struct {
	System    string
	Direction Direction
	Cores     int
	MsgSize   int
	WindowMs  float64 // simulated duration (default 20 ms)
	RingSize  int     // default 256
	TSO       bool    // default true (set via DefaultConfig)
	MTU       int     // default 1500
	Costs     *cycles.Costs
	// NoHint disables the copy strategy's packet-length copying hint
	// (required for non-network workloads, e.g. storage).
	NoHint bool
	// RemoteBufs places DMA buffers on the far NUMA domain (ablation of
	// the shadow pool's NUMA stickiness).
	RemoteBufs bool
	// Obs, when non-nil, installs the observability layer on the machine's
	// engine: spans feed its profiler (Result.Profile), counters are
	// published into its registry after the run, and — if it records a
	// timeline — the IOMMU gets an event ring for trace export. Must not
	// be shared across concurrently-running machines.
	Obs *obs.Observer
}

// DefaultConfig fills a Config with the paper's methodology defaults.
func DefaultConfig(system string, dir Direction, cores, msgSize int) Config {
	return Config{
		System:    system,
		Direction: dir,
		Cores:     cores,
		MsgSize:   msgSize,
		WindowMs:  20,
		RingSize:  256,
		TSO:       true,
		MTU:       1500,
		Costs:     cycles.Default(),
	}
}

// Result is the outcome of one run.
type Result struct {
	Config        Config
	Gbps          float64
	CPUPct        float64            // average utilization across the cores used
	PerOp         map[string]float64 // per-DMA-op component times, microseconds
	Ops           uint64             // RX: frames; TX: skbs; RR: transactions
	Messages      uint64
	LatencyUs     float64 // RR only: mean round trip
	LatencyP99Us  float64 // RR only: 99th percentile round trip
	Transactions  uint64  // RR only
	MapperStats   dmaapi.Stats
	PoolBytes     uint64 // copy only: shadow pool footprint
	RxDrops       uint64
	Faults        uint64
	IOTLBHitRate  float64
	Invalidations uint64
	// Profile is the cycle-attribution snapshot (nil unless Config.Obs was
	// set); TotalBusy is the workload procs' summed busy cycles.
	Profile *obs.Profile
}

// NewMapper instantiates a protection strategy by name.
func NewMapper(name string, env *dmaapi.Env) (dmaapi.Mapper, error) {
	switch name {
	case SysNoIOMMU:
		return dmaapi.NewNoIOMMU(env), nil
	case SysCopy:
		return core.NewShadowMapper(env, core.WithHint(netstack.PacketLenHint))
	case SysIdentityDefer:
		return dmaapi.NewIdentity(env, true), nil
	case SysIdentityStrict:
		return dmaapi.NewIdentity(env, false), nil
	case SysLinuxStrict:
		return dmaapi.NewLinux(env, false), nil
	case SysLinuxDefer:
		return dmaapi.NewLinux(env, true), nil
	case SysSWIOTLB:
		return dmaapi.NewSWIOTLB(env), nil
	case SysSelfInval:
		return dmaapi.NewSelfInval(env, 0), nil
	}
	return nil, fmt.Errorf("bench: unknown system %q", name)
}

// Machine bundles one assembled evaluation machine.
type Machine struct {
	Eng    *sim.Engine
	Mem    *mem.Memory
	IOMMU  *iommu.IOMMU
	Env    *dmaapi.Env
	Mapper dmaapi.Mapper
	NIC    *nic.NIC
	Kmal   *mem.Kmalloc
	Driver *netstack.Driver
	Obs    *obs.Observer // nil unless Config.Obs was set
}

// NewMachine assembles the evaluated machine for a config.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Costs == nil {
		cfg.Costs = cycles.Default()
	}
	eng := sim.NewEngine()
	m := mem.New(2) // dual socket, as in the paper
	u := iommu.New(eng, m, cfg.Costs)
	if cfg.Obs != nil {
		// Must precede every Spawn: procs copy the span sink at creation.
		eng.SetObserver(cfg.Obs)
	}
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: cfg.Costs, Dev: 1, Cores: cfg.Cores}
	var mapper dmaapi.Mapper
	var err error
	if cfg.NoHint && cfg.System == SysCopy {
		mapper, err = core.NewShadowMapper(env)
	} else {
		mapper, err = NewMapper(cfg.System, env)
	}
	if err != nil {
		return nil, err
	}
	n := nic.New(eng, u, nic.Config{
		Dev:      1,
		Queues:   cfg.Cores,
		RingSize: cfg.RingSize,
		MTU:      cfg.MTU,
		TSO:      cfg.TSO,
		Costs:    cfg.Costs,
	})
	k := mem.NewKmalloc(m, nil)
	drv := netstack.NewDriver(env, mapper, n, k, 2048)
	drv.RemoteBufs = cfg.RemoteBufs
	return &Machine{Eng: eng, Mem: m, IOMMU: u, Env: env, Mapper: mapper, NIC: n, Kmal: k, Driver: drv, Obs: cfg.Obs}, nil
}

// Run executes one benchmark configuration.
func Run(cfg Config) (Result, error) {
	if cfg.WindowMs <= 0 {
		cfg.WindowMs = 20
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 256
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1500
	}
	if cfg.Costs == nil {
		cfg.Costs = cycles.Default()
	}
	mach, err := NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	defer mach.Mem.Release()
	switch cfg.Direction {
	case RX:
		return runRx(mach, cfg)
	case TX:
		return runTx(mach, cfg)
	case RR:
		return runRR(mach, cfg)
	}
	return Result{}, fmt.Errorf("bench: bad direction %v", cfg.Direction)
}

func runRx(mach *Machine, cfg Config) (Result, error) {
	stats := make([]netstack.RxStats, cfg.Cores)
	var setupErr, runErr error
	var procs []*sim.Proc
	for c := 0; c < cfg.Cores; c++ {
		c := c
		pr := mach.Eng.Spawn(fmt.Sprintf("rx%d", c), c, 0, func(p *sim.Proc) {
			if err := mach.Driver.SetupQueue(p, c); err != nil {
				setupErr = err
				return
			}
			if err := mach.Driver.RunRxStream(p, c, cfg.MsgSize, &stats[c]); err != nil {
				runErr = err
			}
		})
		procs = append(procs, pr)
		src := nic.NewSource(mach.Eng, mach.NIC.Queue(c), cfg.Costs, cfg.MsgSize, cfg.MTU, true)
		src.Start(0)
	}
	window := cycles.FromMillis(cfg.WindowMs)
	mach.Eng.Run(window)
	res := collect(mach, cfg, procs, window)
	mach.Eng.Stop()
	if setupErr != nil {
		return res, setupErr
	}
	if runErr != nil {
		return res, runErr
	}
	var bytes, frames, msgs uint64
	for _, s := range stats {
		bytes += s.Bytes
		frames += s.Frames
		msgs += s.Messages
	}
	res.Gbps = cycles.Gbps(bytes, window)
	res.Ops = frames
	res.Messages = msgs
	finishPerOp(&res)
	return res, nil
}

func runTx(mach *Machine, cfg Config) (Result, error) {
	stats := make([]netstack.TxStats, cfg.Cores)
	var runErr error
	var procs []*sim.Proc
	for c := 0; c < cfg.Cores; c++ {
		c := c
		pr := mach.Eng.Spawn(fmt.Sprintf("tx%d", c), c, 0, func(p *sim.Proc) {
			if err := mach.Driver.RunTxStream(p, c, cfg.MsgSize, &stats[c]); err != nil {
				runErr = err
			}
		})
		procs = append(procs, pr)
	}
	window := cycles.FromMillis(cfg.WindowMs)
	mach.Eng.Run(window)
	res := collect(mach, cfg, procs, window)
	mach.Eng.Stop()
	if runErr != nil {
		return res, runErr
	}
	var bytes, skbs, msgs uint64
	for _, s := range stats {
		bytes += s.Bytes
		skbs += s.Skbs
		msgs += s.Messages
	}
	res.Gbps = cycles.Gbps(bytes, window)
	res.Ops = skbs
	res.Messages = msgs
	finishPerOp(&res)
	return res, nil
}

func runRR(mach *Machine, cfg Config) (Result, error) {
	var st netstack.RRServerStats
	var setupErr, runErr error
	pr := mach.Eng.Spawn("rr", 0, 0, func(p *sim.Proc) {
		if err := mach.Driver.SetupQueue(p, 0); err != nil {
			setupErr = err
			return
		}
		if err := mach.Driver.RunRRServer(p, 0, cfg.MsgSize, &st); err != nil {
			runErr = err
		}
	})
	client := netstack.NewRRClient(mach.Eng, mach.NIC, 0, cfg.Costs, cfg.MsgSize)
	client.Start(cycles.FromMicros(100)) // after queue setup settles
	window := cycles.FromMillis(cfg.WindowMs)
	mach.Eng.Run(window)
	res := collect(mach, cfg, []*sim.Proc{pr}, window)
	mach.Eng.Stop()
	if setupErr != nil {
		return res, setupErr
	}
	if runErr != nil {
		return res, runErr
	}
	res.LatencyUs = cycles.Micros(client.MeanLatency())
	res.LatencyP99Us = stats.SummarizeUint64(client.Samples, cycles.Hz/1e6).P99
	res.Transactions = client.Transactions
	res.Ops = client.Transactions
	res.Messages = st.Rx.Messages
	res.Gbps = cycles.Gbps(st.Rx.Bytes+st.Tx.Bytes, window)
	finishPerOp(&res)
	return res, nil
}

// collect gathers CPU and component accounting from the worker procs.
func collect(mach *Machine, cfg Config, procs []*sim.Proc, window uint64) Result {
	res := Result{
		Config: cfg,
		PerOp:  make(map[string]float64),
	}
	var busy uint64
	for _, p := range procs {
		busy += p.Busy()
		for tag, c := range p.Tagged() {
			res.PerOp[tag] += cycles.Micros(c) // temporarily total us; divided later
		}
	}
	res.CPUPct = 100 * float64(busy) / (float64(window) * float64(len(procs)))
	if res.CPUPct > 100 {
		res.CPUPct = 100
	}
	res.MapperStats = mach.Mapper.Stats()
	res.PoolBytes = res.MapperStats.ShadowPoolBytes
	res.RxDrops = mach.NIC.RxDrops
	res.Faults = mach.IOMMU.FaultCount
	res.IOTLBHitRate = mach.IOMMU.TLB().HitRate()
	res.Invalidations = mach.IOMMU.Queue.Submitted
	if o := mach.Obs; o != nil {
		pr := o.Prof.Snapshot()
		pr.TotalBusy = busy
		res.Profile = &pr
		if o.Reg != nil {
			obs.PublishEngine(o.Reg, mach.Eng)
			obs.PublishIOMMU(o.Reg, mach.IOMMU)
			obs.PublishNIC(o.Reg, mach.NIC)
			obs.PublishMapper(o.Reg, mach.Mapper.Name(), res.MapperStats)
			if sm, ok := mach.Mapper.(*core.ShadowMapper); ok {
				obs.PublishPool(o.Reg, sm.Pool().Stats())
			}
		}
	}
	return res
}

// finishPerOp converts the accumulated per-tag totals into per-operation
// microseconds, folding the IOVA-allocator time into "other" as the
// paper's breakdowns do.
func finishPerOp(res *Result) {
	if res.Ops == 0 {
		res.PerOp = map[string]float64{}
		return
	}
	if v, ok := res.PerOp[cycles.TagIOVA]; ok {
		res.PerOp[cycles.TagOther] += v
		delete(res.PerOp, cycles.TagIOVA)
	}
	for k := range res.PerOp {
		res.PerOp[k] /= float64(res.Ops)
	}
}
