package iommu_test

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// mapUnmapAllocs measures host allocations of one Map+Unmap pair on an
// IOMMU whose engine carries sink (nil: no observer). The IOMMU formats
// its event messages only when a timeline is recorded, so neither a
// missing observer nor a profiler-only one may cost an allocation.
func mapUnmapAllocs(t *testing.T, sink sim.SpanSink) float64 {
	t.Helper()
	eng := sim.NewEngine()
	if sink != nil {
		eng.SetObserver(sink)
	}
	m := mem.New(1)
	u := iommu.New(eng, m, cycles.Default())
	phys, err := m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const iova = iommu.IOVA(0x7000)
	return testing.AllocsPerRun(100, func() {
		if err := u.Map(1, iova, phys, mem.PageSize, iommu.PermRW); err != nil {
			t.Fatal(err)
		}
		if err := u.Unmap(1, iova, mem.PageSize); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMapUnmapAllocatesNothingUnobserved(t *testing.T) {
	if n := mapUnmapAllocs(t, nil); n != 0 {
		t.Errorf("Map+Unmap with no observer: %v allocs, want 0", n)
	}
}

func TestMapUnmapAllocatesNothingProfiled(t *testing.T) {
	if n := mapUnmapAllocs(t, obs.New(false)); n != 0 {
		t.Errorf("Map+Unmap under a profiler-only observer: %v allocs, want 0", n)
	}
}
