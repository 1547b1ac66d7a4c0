package iommu

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/sim"
)

func setup() (*sim.Engine, *mem.Memory, *IOMMU) {
	eng := sim.NewEngine()
	m := mem.New(1)
	u := New(eng, m, cycles.Default())
	return eng, m, u
}

func TestMapTranslateUnmap(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 2)
	iova := IOVA(0x1000_0000)
	if err := u.Map(1, iova, phys, 2*mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	got, _, fault := u.Translate(1, iova+5000, PermRead)
	if fault != nil {
		t.Fatal(fault)
	}
	if got != phys+5000 {
		t.Errorf("translate = %#x, want %#x", uint64(got), uint64(phys+5000))
	}
	if err := u.Unmap(1, iova, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	u.TLB().InvalidateDevice(1)
	if _, _, fault := u.Translate(1, iova, PermRead); fault == nil {
		t.Error("translate after unmap+invalidate should fault")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x2000, phys, 100, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, _, fault := u.Translate(1, 0x2000, PermRead); fault != nil {
		t.Error("read should be allowed")
	}
	if _, _, fault := u.Translate(1, 0x2000, PermWrite); fault == nil {
		t.Error("write to read-only mapping should fault")
	}
	// Permission check must also apply on the IOTLB hit path.
	if _, _, fault := u.Translate(1, 0x2000, PermWrite); fault == nil {
		t.Error("write via cached entry should fault")
	}
}

func TestPageGranularityExposesWholePage(t *testing.T) {
	// The sub-page weakness (paper §4): mapping 100 bytes maps the whole
	// 4 KiB page, so the device can reach co-located data.
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	secret := []byte("co-located secret")
	if err := m.Write(phys+2000, secret); err != nil {
		t.Fatal(err)
	}
	// Map only the first 100 bytes of the page.
	if err := u.Map(1, 0x5000, phys, 100, PermRead); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(secret))
	res := u.DMARead(1, 0x5000+2000, got)
	if res.Fault != nil {
		t.Fatalf("unexpected fault: %v", res.Fault)
	}
	if !bytes.Equal(got, secret) {
		t.Error("device should be able to read the whole mapped page")
	}
}

func TestDoubleMapAndBadUnmap(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x3000, phys, 100, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(1, 0x3000, phys, 100, PermRW); err == nil {
		t.Error("double map should fail")
	}
	if err := u.Unmap(1, 0x9000, 100); err == nil {
		t.Error("unmap of unmapped should fail")
	}
	if err := u.Map(1, 0x4001, phys, 100, PermRW); err == nil {
		t.Error("offset mismatch should fail")
	}
	if err := u.Map(1, 0x4000, phys, 0, PermRW); err == nil {
		t.Error("zero-size map should fail")
	}
}

func TestIOTLBWindowAfterUnmap(t *testing.T) {
	// The deferred-protection vulnerability window: after Unmap (PTE
	// cleared) but before IOTLB invalidation, a previously-used
	// translation still works.
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	iova := IOVA(0x7000)
	if err := u.Map(1, iova, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// Device uses the mapping: loads the IOTLB.
	buf := make([]byte, 8)
	if res := u.DMAWrite(1, iova, []byte("AAAABBBB")); res.Fault != nil {
		t.Fatal(res.Fault)
	}
	// OS unmaps but does not invalidate (deferred).
	if err := u.Unmap(1, iova, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if !u.TLB().Cached(1, iova.Page()) {
		t.Fatal("translation should still be cached")
	}
	// The device can still write! (the window)
	if res := u.DMAWrite(1, iova, []byte("EVILEVIL")); res.Fault != nil {
		t.Errorf("window write should succeed, got fault: %v", res.Fault)
	}
	if err := m.Read(phys, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("EVILEVIL")) {
		t.Error("window write did not land")
	}
	// After invalidation the window closes.
	u.TLB().InvalidatePages(1, iova.Page(), 1)
	if res := u.DMAWrite(1, iova, []byte("again")); res.Fault == nil {
		t.Error("write after invalidation should fault")
	}
}

func TestDMAReadWriteRoundTrip(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 4)
	iova := IOVA(0x10000)
	if err := u.Map(1, iova, phys, 4*mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*mem.PageSize)
	rand.New(rand.NewSource(7)).Read(data)
	if res := u.DMAWrite(1, iova+100, data); res.Fault != nil || res.Done != len(data) {
		t.Fatalf("write: %+v", res)
	}
	got := make([]byte, len(data))
	if res := u.DMARead(1, iova+100, got); res.Fault != nil || res.Done != len(got) {
		t.Fatalf("read: %+v", res)
	}
	if !bytes.Equal(got, data) {
		t.Error("DMA round trip corrupted data")
	}
}

func TestDMAPartialFault(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	iova := IOVA(0x20000)
	if err := u.Map(1, iova, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// DMA of 2 pages: first page mapped, second not.
	data := make([]byte, 2*mem.PageSize)
	res := u.DMAWrite(1, iova, data)
	if res.Fault == nil {
		t.Fatal("expected fault on second page")
	}
	if res.Done != mem.PageSize {
		t.Errorf("Done = %d, want %d", res.Done, mem.PageSize)
	}
	if u.FaultCount == 0 || len(u.Faults()) == 0 {
		t.Error("fault should be recorded")
	}
}

func TestPassthroughMode(t *testing.T) {
	_, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	u.SetPassthrough(9, true)
	got, lat, fault := u.Translate(9, IOVA(phys), PermRW)
	if fault != nil || got != phys || lat != 0 {
		t.Errorf("passthrough translate: %#x %d %v", uint64(got), lat, fault)
	}
	u.SetPassthrough(9, false)
	if _, _, fault := u.Translate(9, IOVA(phys), PermRW); fault == nil {
		t.Error("translation should fault once passthrough is off")
	}
}

func TestFaultHookFires(t *testing.T) {
	_, _, u := setup()
	var seen []Fault
	u.FaultHook = func(f Fault) { seen = append(seen, f) }
	u.Translate(3, 0xdead000, PermRead)
	if len(seen) != 1 || seen[0].Dev != 3 {
		t.Errorf("hook: %+v", seen)
	}
	if seen[0].Error() == "" {
		t.Error("fault should format")
	}
}

func TestPageTableManyRandomPages(t *testing.T) {
	d := newDomain(1)
	rng := rand.New(rand.NewSource(99))
	ref := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		pg := rng.Uint64() & ((1 << (IOVABits - mem.PageShift)) - 1)
		pfn := rng.Uint64()
		d.set(pg, pte{pfn: pfn, perm: PermRW, valid: true})
		ref[pg] = pfn
	}
	for pg, pfn := range ref {
		e, ok := d.lookup(pg)
		if !ok || e.pfn != pfn {
			t.Fatalf("lookup(%#x) = %+v ok=%v, want pfn %#x", pg, e, ok, pfn)
		}
	}
	// Clear half, verify.
	i := 0
	for pg := range ref {
		if i%2 == 0 {
			if !d.clear(pg) {
				t.Fatalf("clear(%#x) failed", pg)
			}
			delete(ref, pg)
		}
		i++
	}
	for pg, pfn := range ref {
		e, ok := d.lookup(pg)
		if !ok || e.pfn != pfn {
			t.Fatalf("post-clear lookup(%#x) failed", pg)
		}
	}
}

func TestIOTLBEviction(t *testing.T) {
	tlb := NewIOTLB(1, 2) // one set, two ways
	tlb.Insert(1, 10, pte{pfn: 100, valid: true}, 0)
	tlb.Insert(1, 20, pte{pfn: 200, valid: true}, 0)
	tlb.Lookup(1, 10, 0) // make page 10 MRU
	tlb.Insert(1, 30, pte{pfn: 300, valid: true}, 0)
	if tlb.Cached(1, 20) {
		t.Error("LRU entry (20) should have been evicted")
	}
	if !tlb.Cached(1, 10) || !tlb.Cached(1, 30) {
		t.Error("MRU and new entries should remain")
	}
	if tlb.Evictions != 1 {
		t.Errorf("evictions = %d", tlb.Evictions)
	}
}

func TestIOTLBInvalidateScopes(t *testing.T) {
	tlb := NewIOTLB(8, 4)
	tlb.Insert(1, 10, pte{pfn: 1, valid: true}, 0)
	tlb.Insert(1, 11, pte{pfn: 2, valid: true}, 0)
	tlb.Insert(2, 10, pte{pfn: 3, valid: true}, 0)
	tlb.InvalidatePages(1, 10, 1)
	if tlb.Cached(1, 10) || !tlb.Cached(1, 11) || !tlb.Cached(2, 10) {
		t.Error("page-selective invalidation scope wrong")
	}
	tlb.InvalidateDevice(1)
	if tlb.Cached(1, 11) || !tlb.Cached(2, 10) {
		t.Error("device-selective invalidation scope wrong")
	}
	tlb.InvalidateAll()
	if tlb.Cached(2, 10) {
		t.Error("global invalidation scope wrong")
	}
}

func TestIOTLBInvalidateStatsDeltas(t *testing.T) {
	// Each Invalidate* call counts exactly once regardless of how many
	// entries it drops or which scan strategy it uses, and invalidated
	// entries become misses on the next lookup.
	// Small set count so a multi-page range crosses sets, with enough
	// ways that all 16 inserted entries fit without evictions.
	tlb := NewIOTLB(4, 8)
	load := func() {
		for p := uint64(0); p < 8; p++ {
			tlb.Insert(1, p, pte{pfn: 100 + p, valid: true}, 0)
			tlb.Insert(2, p, pte{pfn: 200 + p, valid: true}, 0)
		}
	}

	// 1-page invalidation: indexed path (npages < sets).
	load()
	inv, misses := tlb.Invalidations, tlb.Misses
	tlb.InvalidatePages(1, 3, 1)
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("1-page invalidation counted %d times", got)
	}
	if tlb.Cached(1, 3) {
		t.Error("1-page invalidation left the entry cached")
	}
	if !tlb.Cached(2, 3) {
		t.Error("1-page invalidation leaked to another device")
	}
	if _, ok := tlb.Lookup(1, 3, 0); ok || tlb.Misses != misses+1 {
		t.Error("invalidated page should miss")
	}

	// Multi-page range crossing sets, still on the indexed path.
	load()
	inv = tlb.Invalidations
	tlb.InvalidatePages(1, 1, 3) // pages 1..3 hash to different sets
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("multi-page invalidation counted %d times", got)
	}
	for p := uint64(1); p <= 3; p++ {
		if tlb.Cached(1, p) {
			t.Errorf("page %d still cached after range invalidation", p)
		}
		if !tlb.Cached(2, p) {
			t.Errorf("device 2 page %d dropped by device 1 invalidation", p)
		}
	}
	if !tlb.Cached(1, 0) {
		t.Error("page outside the range was dropped")
	}

	// Range >= sets: full-scan path, same observable behavior.
	load()
	inv = tlb.Invalidations
	tlb.InvalidatePages(1, 0, 8)
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("large-range invalidation counted %d times", got)
	}
	for p := uint64(0); p < 8; p++ {
		if tlb.Cached(1, p) {
			t.Errorf("page %d survived large-range invalidation", p)
		}
	}

	// Whole-device invalidation.
	load()
	inv = tlb.Invalidations
	tlb.InvalidateDevice(2)
	if got := tlb.Invalidations - inv; got != 1 {
		t.Errorf("device invalidation counted %d times", got)
	}
	for p := uint64(0); p < 8; p++ {
		if tlb.Cached(2, p) {
			t.Errorf("device 2 page %d survived device invalidation", p)
		}
		if !tlb.Cached(1, p) {
			t.Errorf("device 1 page %d dropped by device 2 invalidation", p)
		}
	}
}

func TestInvQueueAsyncCompletion(t *testing.T) {
	eng, m, u := setup()
	c := cycles.Default()
	phys, _ := m.AllocPages(0, 1)
	iova := IOVA(0x8000)
	if err := u.Map(1, iova, phys, mem.PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	u.Translate(1, iova, PermRead) // cache it
	var doneAt, submitAt uint64
	eng.Spawn("core0", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		submitAt = p.Now()
		doneAt = u.Queue.SubmitPages(p, 1, iova.Page(), 1)
		u.Queue.Lock.Unlock(p)
		// Invalidation is asynchronous: entry still cached right after
		// submission.
		if !u.TLB().Cached(1, iova.Page()) {
			t.Error("entry invalidated synchronously")
		}
	})
	eng.Run(10_000_000)
	if doneAt < submitAt+c.IOTLBInvalidateHW {
		t.Errorf("completion %d too early (submit %d)", doneAt, submitAt)
	}
	if u.TLB().Cached(1, iova.Page()) {
		t.Error("entry should be invalidated after hw processes the command")
	}
	if u.Queue.Submitted != 1 || u.Queue.Completed != 1 {
		t.Errorf("queue stats: %d/%d", u.Queue.Submitted, u.Queue.Completed)
	}
}

func TestInvQueueSerializesHardware(t *testing.T) {
	eng, _, u := setup()
	c := cycles.Default()
	var times []uint64
	eng.Spawn("core0", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		for i := 0; i < 3; i++ {
			times = append(times, u.Queue.SubmitGlobal(p))
		}
		u.Queue.Lock.Unlock(p)
	})
	eng.Run(100_000_000)
	// Hardware processes commands serially: completions must be spaced
	// by at least the hw invalidation latency.
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1]+c.IOTLBInvalidateHW {
			t.Errorf("completions not serialized: %v", times)
		}
	}
}

func TestStrictWaitAccountsBusySpin(t *testing.T) {
	eng, m, u := setup()
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x6000, phys, 100, PermRW); err != nil {
		t.Fatal(err)
	}
	var p0 *sim.Proc
	p0 = eng.Spawn("core0", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		done := u.Queue.SubmitPages(p, 1, 6, 1)
		u.Queue.WaitFor(p, done)
		u.Queue.Lock.Unlock(p)
	})
	eng.Run(10_000_000)
	inval := p0.TaggedCycles(cycles.TagInvalidate)
	c := cycles.Default()
	if inval < c.IOTLBInvalidateHW {
		t.Errorf("invalidation spin = %d, want >= %d", inval, c.IOTLBInvalidateHW)
	}
}

// eventSink is a timeline sink that keeps the IOMMU events it is sent.
type eventSink struct {
	cats map[string]int
	msgs []string
}

func (s *eventSink) SpanEnd(*sim.Proc, string, uint64, uint64, uint64, uint64) {}
func (s *eventSink) SpanInstant(*sim.Proc, string, uint64)                     {}
func (s *eventSink) Timeline() bool                                            { return true }
func (s *eventSink) Event(cat, msg string, at uint64) {
	s.cats[cat]++
	s.msgs = append(s.msgs, msg)
}

func TestTraceRecordsIOMMUEvents(t *testing.T) {
	eng, m, u := setup()
	sink := &eventSink{cats: map[string]int{}}
	eng.SetObserver(sink)
	phys, _ := m.AllocPages(0, 1)
	if err := u.Map(1, 0x9000, phys, 100, PermRead); err != nil {
		t.Fatal(err)
	}
	u.Translate(1, 0x9000, PermWrite) // fault
	if err := u.Unmap(1, 0x9000, 100); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("c", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		u.Queue.SubmitGlobal(p)
		u.Queue.Lock.Unlock(p)
	})
	eng.Run(1 << 30)
	eng.Stop()
	for _, want := range []string{"map", "unmap", "fault", "inval"} {
		if sink.cats[want] == 0 {
			t.Errorf("no %q events recorded (got %v)", want, sink.cats)
		}
	}
	if !strings.Contains(strings.Join(sink.msgs, "\n"), "iova 0x9000") {
		t.Error("events missing detail")
	}
}
