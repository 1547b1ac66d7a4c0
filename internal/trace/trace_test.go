package trace

import (
	"strings"
	"testing"
)

func TestNilAndZeroTracersAreNoOps(t *testing.T) {
	var nilT *Tracer
	nilT.Emit(0, CatMap, "x") // must not panic
	if nilT.Events() != nil {
		t.Error("nil tracer should have no events")
	}
	var zero Tracer
	zero.Emit(0, CatMap, "x")
	if zero.Events() != nil || zero.Emitted != 0 {
		t.Error("zero tracer should be disabled")
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(uint64(i*100), CatMap, "event-%d", i)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d", len(ev))
	}
	if ev[0].Msg != "event-6" || ev[3].Msg != "event-9" {
		t.Errorf("wrong window: %v .. %v", ev[0].Msg, ev[3].Msg)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Error("events out of order")
		}
	}
	if tr.Emitted != 10 {
		t.Errorf("emitted = %d", tr.Emitted)
	}
}

func TestDumpFormat(t *testing.T) {
	tr := New(8)
	tr.Emit(2400, CatFault, "dev %d iova %#x", 1, 0x5000)
	var b strings.Builder
	tr.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "1.000us") || !strings.Contains(out, "fault") ||
		!strings.Contains(out, "dev 1 iova 0x5000") {
		t.Errorf("dump format: %q", out)
	}
}

func TestDumpFrequency(t *testing.T) {
	tr := New(4)
	tr.Emit(4800, CatMap, "m")
	var b strings.Builder
	tr.Dump(&b)
	// 4800 cycles at the simulation's 2.4 GHz clock is 2 us.
	if !strings.Contains(b.String(), "2.000us") {
		t.Errorf("default-frequency dump: %q", b.String())
	}
}
