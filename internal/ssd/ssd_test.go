package ssd

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

type rig struct {
	eng    *sim.Engine
	m      *mem.Memory
	u      *iommu.IOMMU
	env    *dmaapi.Env
	dev    *SSD
	k      *mem.Kmalloc
	mapper dmaapi.Mapper
	bd     *BlockDriver
}

func newRig(t *testing.T, system string, queues int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	m := mem.New(1)
	costs := cycles.Default()
	u := iommu.New(eng, m, costs)
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: costs, Dev: 7, Cores: queues}
	var mapper dmaapi.Mapper
	var err error
	switch system {
	case "copy":
		mapper, err = core.NewShadowMapper(env)
	case "noiommu":
		mapper = dmaapi.NewNoIOMMU(env)
	case "strict":
		mapper = dmaapi.NewLinux(env, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	dev := New(eng, u, Config{Dev: 7, Queues: queues, Costs: costs})
	k := mem.NewKmalloc(m, nil)
	return &rig{eng: eng, m: m, u: u, env: env, dev: dev, k: k, mapper: mapper,
		bd: NewBlockDriver(env, mapper, dev, k)}
}

func TestReadWriteRoundTripThroughFlash(t *testing.T) {
	for _, sys := range []string{"noiommu", "copy", "strict"} {
		r := newRig(t, sys, 1)
		q := r.dev.Queue(0)
		buf, _ := r.k.Alloc(0, 8192)
		content := bytes.Repeat([]byte("flash-block-data"), 512) // 8 KiB
		r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
			// Write 8 KiB at LBA 10.
			if err := r.m.Write(buf.Addr, content); err != nil {
				t.Error(err)
				return
			}
			addr, err := r.mapper.Map(p, buf, dmaapi.ToDevice)
			if err != nil {
				t.Error(err)
				return
			}
			q.Submit(p, Command{Op: OpWrite, LBA: 10, Addr: addr, Len: 8192, Tag: "w"})
			q.CompCond.WaitUntil(p, q.HasComp)
			c := q.DrainComp()[0]
			if c.Status != nil {
				t.Errorf("%s: write failed: %v", sys, c.Status)
			}
			r.mapper.Unmap(p, addr, buf.Size, dmaapi.ToDevice)

			// Read it back into a scrubbed buffer.
			r.m.Fill(buf, 0)
			addr, err = r.mapper.Map(p, buf, dmaapi.FromDevice)
			if err != nil {
				t.Error(err)
				return
			}
			q.Submit(p, Command{Op: OpRead, LBA: 10, Addr: addr, Len: 8192, Tag: "r"})
			q.CompCond.WaitUntil(p, q.HasComp)
			c = q.DrainComp()[0]
			if c.Status != nil {
				t.Errorf("%s: read failed: %v", sys, c.Status)
			}
			r.mapper.Unmap(p, addr, buf.Size, dmaapi.FromDevice)
			got, _ := r.m.Snapshot(buf)
			if !bytes.Equal(got, content) {
				t.Errorf("%s: flash round trip corrupted data", sys)
			}
		})
		r.eng.Run(1 << 40)
		r.eng.Stop()
		if r.dev.Reads != 1 || r.dev.Writes != 1 {
			t.Errorf("%s: device stats %d/%d", sys, r.dev.Reads, r.dev.Writes)
		}
	}
}

func TestSSDFaultsOnUnmappedBuffer(t *testing.T) {
	r := newRig(t, "strict", 1)
	q := r.dev.Queue(0)
	errs := 0
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		q.Submit(p, Command{Op: OpRead, LBA: 0, Addr: 0xdead000, Len: 4096, Tag: nil})
		q.CompCond.WaitUntil(p, q.HasComp)
		for _, c := range q.DrainComp() {
			if c.Status != nil {
				errs++
			}
		}
	})
	r.eng.Run(1 << 40)
	r.eng.Stop()
	if errs != 1 || r.dev.Faults != 1 {
		t.Errorf("errs=%d faults=%d", errs, r.dev.Faults)
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	r := newRig(t, "noiommu", 1)
	r.dev.cfg.QueueDepth = 4
	q := r.dev.Queue(0)
	buf, _ := r.k.Alloc(0, 4096)
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		addr, _ := r.mapper.Map(p, buf, dmaapi.FromDevice)
		n := 0
		for q.Submit(p, Command{Op: OpRead, LBA: 0, Addr: addr, Len: 4096}) {
			n++
		}
		if n != 4 {
			t.Errorf("accepted %d commands, want 4", n)
		}
	})
	r.eng.Run(1 << 30)
	r.eng.Stop()
}

func TestWorkloadRunsAndVerifies(t *testing.T) {
	r := newRig(t, "copy", 1)
	// Prefill flash so 100%-read verification is deterministic.
	for lba := uint64(0); lba < 256; lba++ {
		blk := make([]byte, BlockSize)
		for i := range blk {
			blk[i] = byte(lba) ^ byte(i)
		}
		r.dev.Preload(lba, blk)
	}
	var st WorkloadStats
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		cfg := WorkloadConfig{IOSize: 4096, ReadPct: 100, Depth: 8, Blocks: 256, Seed: 1, Verify: true}
		if err := r.bd.RunWorkload(p, 0, cfg, &st); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run(cycles.FromMillis(5))
	r.eng.Stop()
	if st.Reads < 100 {
		t.Errorf("reads = %d", st.Reads)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
}

func TestThroughputEnvelopeRespected(t *testing.T) {
	// 4K random reads must not exceed the configured 850K IOPS even with
	// many queues hammering the device.
	r := newRig(t, "noiommu", 4)
	var stats [4]WorkloadStats
	for c := 0; c < 4; c++ {
		c := c
		r.eng.Spawn("blk", c, 0, func(p *sim.Proc) {
			cfg := WorkloadConfig{IOSize: 4096, ReadPct: 100, Depth: 32, Blocks: 4096, Seed: 7}
			_ = r.bd.RunWorkload(p, c, cfg, &stats[c])
		})
	}
	window := cycles.FromMillis(10)
	r.eng.Run(window)
	r.eng.Stop()
	var ops uint64
	for _, s := range stats {
		ops += s.Reads
	}
	iops := cycles.PerSec(ops, window)
	if iops > 900_000 {
		t.Errorf("IOPS = %.0f exceeds the device envelope", iops)
	}
	if iops < 500_000 {
		t.Errorf("IOPS = %.0f too low for a 4-queue read workload", iops)
	}
}

func TestHugeIOUsesHybridPath(t *testing.T) {
	r := newRig(t, "copy", 1)
	var st WorkloadStats
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		cfg := WorkloadConfig{IOSize: 256 * 1024, ReadPct: 50, Depth: 4, Blocks: 1024, Seed: 3}
		_ = r.bd.RunWorkload(p, 0, cfg, &st)
	})
	r.eng.Run(cycles.FromMillis(10))
	r.eng.Stop()
	ms := r.mapper.Stats()
	if ms.HybridMaps == 0 {
		t.Error("256 KiB I/O should engage the hybrid path")
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
	// Huge buffers are NOT copied wholesale: copied bytes must be far
	// below the bytes transferred.
	if ms.BytesCopied > st.Bytes/10 {
		t.Errorf("copied %d of %d transferred bytes; hybrid should copy only head/tail",
			ms.BytesCopied, st.Bytes)
	}
}

func TestDeviceTransferAllocatesNothing(t *testing.T) {
	r := newRig(t, "noiommu", 1)
	r.u.SetPassthrough(7, true)
	const size = 4 * BlockSize
	buf, err := r.m.AllocPages(0, size/mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpWrite, OpRead} {
		cmd := Command{Op: op, LBA: 8, Addr: iommu.IOVA(buf), Len: size}
		allocs := testing.AllocsPerRun(100, func() {
			if err := r.dev.transfer(cmd); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("op %d: device transfer allocates %.1f objects per op, want 0", op, allocs)
		}
	}
}

func TestFlashRewriteAndReadInto(t *testing.T) {
	d := New(sim.NewEngine(), nil, Config{})
	d.writeFlash(3, bytes.Repeat([]byte{0xff}, BlockSize))
	// A short rewrite overwrites the block in place and zeroes its tail.
	d.writeFlash(3, bytes.Repeat([]byte{0x11}, 100))
	want := append(bytes.Repeat([]byte{0x11}, 100), make([]byte, BlockSize-100)...)
	if got := d.BlockAt(3); !bytes.Equal(got, want) {
		t.Error("short rewrite left stale bytes in the block")
	}
	// Reading into a dirty buffer zeroes the blocks never written.
	dst := bytes.Repeat([]byte{0xee}, 2*BlockSize)
	d.readFlashInto(dst, 3)
	if !bytes.Equal(dst[:BlockSize], want) || !bytes.Equal(dst[BlockSize:], make([]byte, BlockSize)) {
		t.Error("readFlashInto did not return flash content with zeros for unwritten blocks")
	}
}
