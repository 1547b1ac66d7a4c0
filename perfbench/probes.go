package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/iova"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// probeBatches is how many timed batches each isolated probe runs; a
// probe reports the median batch.
const probeBatches = 5

// perOp runs fn n times per batch and returns the median host
// nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	var ns []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// probeLayers times fixed-size loops over single layers' public
// functions, outside any simulation run.
func probeLayers(set func(name, unit string, v float64)) error {
	costs := cycles.Default()

	// iommu: translation through a warm IOTLB, translation that misses
	// (4096 mapped pages cycled through a far smaller IOTLB), and a
	// one-page map+unmap.
	const pages = 4096
	m := mem.New(1)
	u := iommu.New(sim.NewEngine(), m, costs)
	phys, err := m.AllocPages(0, pages)
	if err != nil {
		return err
	}
	base := iommu.IOVA(0x1000_0000)
	if err := u.Map(1, base, phys, pages*mem.PageSize, iommu.PermRW); err != nil {
		return err
	}
	var fault *iommu.Fault
	set("iommu.translate_hit_ns", "ns", perOp(200_000, func(int) {
		if _, _, f := u.Translate(1, base, iommu.PermRead); f != nil {
			fault = f
		}
	}))
	set("iommu.translate_miss_ns", "ns", perOp(200_000, func(i int) {
		if _, _, f := u.Translate(1, base+iommu.IOVA(i%pages)<<mem.PageShift, iommu.PermRead); f != nil {
			fault = f
		}
	}))
	if fault != nil {
		return fmt.Errorf("iommu probe: %v", fault)
	}
	spare := base + pages<<mem.PageShift
	set("iommu.map_unmap_ns", "ns", perOp(50_000, func(int) {
		if err == nil {
			err = u.Map(1, spare, phys, mem.PageSize, iommu.PermRW)
		}
		if err == nil {
			err = u.Unmap(1, spare, mem.PageSize)
		}
	}))
	if err != nil {
		return fmt.Errorf("iommu probe: %w", err)
	}

	// iova: one-page alloc+free with 1024 ranges already outstanding, on
	// the red-black tree and through a per-core magazine.
	type allocator interface {
		Alloc(core, npages int) (iommu.IOVA, error)
		Free(core int, addr iommu.IOVA, npages int) error
	}
	for _, a := range []struct {
		name  string
		alloc allocator
	}{
		{"iova.tree_alloc_free_ns", iova.NewTree(1, 1<<30)},
		{"iova.magazine_alloc_free_ns", iova.NewMagazine(1, 1, 1<<30, 0)},
	} {
		for i := 0; i < 1024; i++ {
			if _, err := a.alloc.Alloc(0, 1); err != nil {
				return err
			}
		}
		set(a.name, "ns", perOp(100_000, func(int) {
			v, aerr := a.alloc.Alloc(0, 1)
			if aerr == nil {
				aerr = a.alloc.Free(0, v, 1)
			}
			if aerr != nil {
				err = aerr
			}
		}))
		if err != nil {
			return fmt.Errorf("iova probe: %w", err)
		}
	}

	// shadow: acquire+release of an MTU-sized buffer by a single proc.
	if err := probeShadow(set, costs); err != nil {
		return err
	}

	// mem: a 64 KiB copy, and the first write into a fresh 1 MiB chunk
	// (which materializes and zeroes it).
	src, err := m.AllocPages(0, 16)
	if err != nil {
		return err
	}
	dst, err := m.AllocPages(0, 16)
	if err != nil {
		return err
	}
	if err := m.Fill(mem.Buf{Addr: src, Size: 16 * mem.PageSize}, 0xab); err != nil {
		return err
	}
	set("mem.copy_ns_per_kib", "ns", perOp(2_000, func(int) {
		if cerr := m.Copy(dst, src, 16*mem.PageSize); cerr != nil {
			err = cerr
		}
	})/64)
	if err != nil {
		return fmt.Errorf("mem probe: %w", err)
	}
	const chunkPages, chunks = 256, 16
	var touchUs []float64
	for b := 0; b < probeBatches; b++ {
		fresh := mem.New(1)
		at, err := fresh.AllocPages(0, chunkPages*chunks)
		if err != nil {
			return err
		}
		start := time.Now()
		for c := 0; c < chunks; c++ {
			if err := fresh.Write(at+mem.Phys(c*chunkPages*mem.PageSize), []byte{1}); err != nil {
				return err
			}
		}
		touchUs = append(touchUs, float64(time.Since(start).Nanoseconds())/1e3/chunks)
	}
	set("mem.chunk_first_touch_us", "us", median(touchUs))

	// bench: assembling one 16-core evaluation machine per backend.
	for _, sys := range bench.AllSystems {
		cfg := bench.DefaultConfig(sys, bench.RX, 16, 16384)
		set("bench.new_machine_us."+slug(sys), "us", perOp(20, func(int) {
			if _, merr := bench.NewMachine(cfg); merr != nil {
				err = merr
			}
		})/1e3)
		if err != nil {
			return fmt.Errorf("new machine %s: %w", sys, err)
		}
	}
	return nil
}

// probeShadow times shadow-pool acquire+release from inside a proc, the
// only context the pool runs in.
func probeShadow(set func(name, unit string, v float64), costs *cycles.Costs) error {
	eng := sim.NewEngine()
	m := mem.New(1)
	u := iommu.New(eng, m, costs)
	pool, err := shadow.NewPool(eng, m, u, costs, 1, shadow.DefaultConfig(1, 1, func(int) int { return 0 }))
	if err != nil {
		return err
	}
	osPage, err := m.AllocPages(0, 1)
	if err != nil {
		return err
	}
	osBuf := mem.Buf{Addr: osPage, Size: 1500}
	var ns float64
	eng.Spawn("probe", 0, 0, func(p *sim.Proc) {
		ns = perOp(50_000, func(int) {
			meta, aerr := pool.Acquire(p, osBuf, osBuf.Size, iommu.PermWrite)
			if aerr != nil {
				err = aerr
				return
			}
			pool.Release(p, meta)
		})
	})
	eng.Run(math.MaxUint64)
	eng.Stop()
	if err != nil {
		return fmt.Errorf("shadow probe: %w", err)
	}
	set("shadow.acquire_release_ns", "ns", ns)
	return nil
}
