package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/sim"
)

// tracedMapper decorates a protection backend with a span around every
// DMA API call. Name, Stats and Accounting pass through untimed.
type tracedMapper struct {
	dmaapi.Mapper
	log *spanLog
}

func (m *tracedMapper) Map(p *sim.Proc, buf mem.Buf, dir dmaapi.Dir) (iommu.IOVA, error) {
	t := m.log.now()
	a, err := m.Mapper.Map(p, buf, dir)
	m.log.add("dmaapi.map", t)
	return a, err
}

func (m *tracedMapper) Unmap(p *sim.Proc, addr iommu.IOVA, size int, dir dmaapi.Dir) error {
	t := m.log.now()
	err := m.Mapper.Unmap(p, addr, size, dir)
	m.log.add("dmaapi.unmap", t)
	return err
}

func (m *tracedMapper) SyncForCPU(p *sim.Proc, addr iommu.IOVA, size int, dir dmaapi.Dir) error {
	t := m.log.now()
	err := m.Mapper.SyncForCPU(p, addr, size, dir)
	m.log.add("dmaapi.sync", t)
	return err
}

func (m *tracedMapper) SyncForDevice(p *sim.Proc, addr iommu.IOVA, size int, dir dmaapi.Dir) error {
	t := m.log.now()
	err := m.Mapper.SyncForDevice(p, addr, size, dir)
	m.log.add("dmaapi.sync", t)
	return err
}

func (m *tracedMapper) MapSG(p *sim.Proc, bufs []mem.Buf, dir dmaapi.Dir) ([]iommu.IOVA, error) {
	t := m.log.now()
	a, err := m.Mapper.MapSG(p, bufs, dir)
	m.log.add("dmaapi.map_sg", t)
	return a, err
}

func (m *tracedMapper) UnmapSG(p *sim.Proc, addrs []iommu.IOVA, sizes []int, dir dmaapi.Dir) error {
	t := m.log.now()
	err := m.Mapper.UnmapSG(p, addrs, sizes, dir)
	m.log.add("dmaapi.unmap_sg", t)
	return err
}

func (m *tracedMapper) AllocCoherent(p *sim.Proc, size int) (iommu.IOVA, mem.Buf, error) {
	t := m.log.now()
	a, b, err := m.Mapper.AllocCoherent(p, size)
	m.log.add("dmaapi.coherent", t)
	return a, b, err
}

func (m *tracedMapper) FreeCoherent(p *sim.Proc, addr iommu.IOVA, buf mem.Buf) error {
	t := m.log.now()
	err := m.Mapper.FreeCoherent(p, addr, buf)
	m.log.add("dmaapi.coherent", t)
	return err
}

func (m *tracedMapper) Quiesce(p *sim.Proc) {
	t := m.log.now()
	m.Mapper.Quiesce(p)
	m.log.add("dmaapi.quiesce", t)
}

// engineCounts are a traced point's scheduler counters.
type engineCounts struct {
	dispatches, fastYields uint64
}

// tracedRxRun is bench.Run for a TCP RX config from bench.DefaultConfig,
// with the backend wrapped in a tracedMapper and Engine.Run inside a
// "sim.run" span. It assembles the machine from the same public
// constructors bench.NewMachine uses and collects the result as bench
// does; TestTracedRunTransparent holds its results identical to
// bench.Run's for every backend.
func tracedRxRun(cfg bench.Config, log *spanLog) (bench.Result, engineCounts, error) {
	if cfg.Direction != bench.RX || cfg.Obs != nil || cfg.NoHint {
		return bench.Result{}, engineCounts{}, fmt.Errorf("tracedRxRun: only plain RX configs")
	}
	eng := sim.NewEngine()
	m := mem.New(2)
	u := iommu.New(eng, m, cfg.Costs)
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: cfg.Costs, Dev: 1, Cores: cfg.Cores}
	backend, err := bench.NewMapper(cfg.System, env)
	if err != nil {
		return bench.Result{}, engineCounts{}, err
	}
	mapper := &tracedMapper{Mapper: backend, log: log}
	n := nic.New(eng, u, nic.Config{
		Dev:      1,
		Queues:   cfg.Cores,
		RingSize: cfg.RingSize,
		MTU:      cfg.MTU,
		TSO:      cfg.TSO,
		Costs:    cfg.Costs,
	})
	drv := netstack.NewDriver(env, mapper, n, mem.NewKmalloc(m, nil), 2048)
	drv.RemoteBufs = cfg.RemoteBufs

	stats := make([]netstack.RxStats, cfg.Cores)
	var setupErr, runErr error
	var procs []*sim.Proc
	for c := 0; c < cfg.Cores; c++ {
		procs = append(procs, eng.Spawn(fmt.Sprintf("rx%d", c), c, 0, func(p *sim.Proc) {
			if err := drv.SetupQueue(p, c); err != nil {
				setupErr = err
				return
			}
			if err := drv.RunRxStream(p, c, cfg.MsgSize, &stats[c]); err != nil {
				runErr = err
			}
		}))
		nic.NewSource(eng, n.Queue(c), cfg.Costs, cfg.MsgSize, cfg.MTU, true).Start(0)
	}
	window := cycles.FromMillis(cfg.WindowMs)
	t := log.now()
	eng.Run(window)
	log.add("sim.run", t)
	counts := engineCounts{dispatches: eng.Dispatches(), fastYields: eng.FastYields()}

	res := bench.Result{Config: cfg, PerOp: map[string]float64{}}
	var busy uint64
	for _, p := range procs {
		busy += p.Busy()
		for tag, c := range p.Tagged() {
			res.PerOp[tag] += cycles.Micros(c)
		}
	}
	res.CPUPct = min(100, 100*float64(busy)/(float64(window)*float64(len(procs))))
	res.MapperStats = mapper.Stats()
	res.PoolBytes = res.MapperStats.ShadowPoolBytes
	res.RxDrops = n.RxDrops
	res.Faults = u.FaultCount
	res.IOTLBHitRate = u.TLB().HitRate()
	res.Invalidations = u.Queue.Submitted
	eng.Stop()
	if setupErr != nil {
		return res, counts, setupErr
	}
	if runErr != nil {
		return res, counts, runErr
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
	// Per-op breakdown as bench reports it: IOVA-allocator time folds into
	// "other", then totals become per-frame microseconds.
	if res.Ops == 0 {
		res.PerOp = map[string]float64{}
		return res, counts, nil
	}
	if v, ok := res.PerOp[cycles.TagIOVA]; ok {
		res.PerOp[cycles.TagOther] += v
		delete(res.PerOp, cycles.TagIOVA)
	}
	for k := range res.PerOp {
		res.PerOp[k] /= float64(res.Ops)
	}
	return res, counts, nil
}
