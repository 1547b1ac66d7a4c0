package sim

import "testing"

// recSink records every span and instant it receives; with timeline set
// it also reports that it records a timeline.
type recSink struct {
	spans    []recSpan
	insts    []recInstant
	timeline bool
}

type recSpan struct {
	path                    string
	self, total, start, end uint64
}

type recInstant struct {
	name string
	at   uint64
}

func (s *recSink) SpanEnd(p *Proc, path string, self, total, start, end uint64) {
	s.spans = append(s.spans, recSpan{path, self, total, start, end})
}
func (s *recSink) SpanInstant(p *Proc, name string, at uint64) {
	s.insts = append(s.insts, recInstant{name, at})
}
func (s *recSink) Event(cat, msg string, at uint64) {}
func (s *recSink) Timeline() bool                   { return s.timeline }

func (s *recSink) find(t *testing.T, path string) recSpan {
	t.Helper()
	for _, sp := range s.spans {
		if sp.path == path {
			return sp
		}
	}
	t.Fatalf("no span %q recorded (have %v)", path, s.spans)
	return recSpan{}
}

// TestSpanAttribution checks the exactness contract: a parent's self
// cycles exclude its children, paths nest with slashes, and spans charge
// nothing beyond what Charge/Work already accounted.
func TestSpanAttribution(t *testing.T) {
	e := NewEngine()
	sink := &recSink{}
	e.SetObserver(sink)
	var busy uint64
	e.Spawn("w", 0, 0, func(p *Proc) {
		if !p.Observed() {
			t.Error("Observed() = false with a sink installed")
		}
		p.SpanEnter("unmap")
		p.Charge("sw", 100)
		p.SpanEnter("inval")
		p.Charge("inval", 40)
		p.SpanExit()
		p.Charge("sw", 10)
		p.SpanExit()
		p.ChargeSpan("ptes", "iommu", 25)
		p.WorkSpan("copy", "copy", 30)
		p.SpanInstant("fault")
		busy = p.Busy()
	})
	e.Run(1 << 30)
	e.Stop()

	if busy != 205 {
		t.Fatalf("busy = %d, want 205", busy)
	}
	inner := sink.find(t, "unmap/inval")
	if inner.self != 40 || inner.total != 40 {
		t.Errorf("unmap/inval self/total = %d/%d, want 40/40", inner.self, inner.total)
	}
	outer := sink.find(t, "unmap")
	if outer.self != 110 || outer.total != 150 {
		t.Errorf("unmap self/total = %d/%d, want 110/150", outer.self, outer.total)
	}
	if outer.end-outer.start != 150 {
		t.Errorf("unmap wall interval = %d, want 150", outer.end-outer.start)
	}
	if sp := sink.find(t, "ptes"); sp.self != 25 {
		t.Errorf("ptes self = %d, want 25", sp.self)
	}
	if sp := sink.find(t, "copy"); sp.self != 30 {
		t.Errorf("copy self = %d, want 30", sp.self)
	}
	if len(sink.insts) != 1 || sink.insts[0].name != "fault" {
		t.Errorf("instants = %v, want one %q", sink.insts, "fault")
	}
	// Sum of self cycles over all spans equals total busy: nothing double
	// counted, nothing lost.
	var self uint64
	for _, sp := range sink.spans {
		self += sp.self
	}
	if self != busy {
		t.Errorf("sum of self cycles = %d, busy = %d", self, busy)
	}
}

// TestSpansDisabledAreNoOps pins the zero-overhead disabled path: with no
// sink, span calls neither panic nor change accounting, and the
// ChargeSpan/WorkSpan wrappers still charge.
func TestSpansDisabledAreNoOps(t *testing.T) {
	e := NewEngine()
	var busy uint64
	e.Spawn("w", 0, 0, func(p *Proc) {
		if p.Observed() {
			t.Error("Observed() = true with no sink")
		}
		p.SpanEnter("unmap")
		p.ChargeSpan("ptes", "iommu", 25)
		p.WorkSpan("copy", "copy", 30)
		p.SpanInstant("fault")
		p.SpanExit()
		p.SpanExit() // unbalanced exit must be harmless too
		busy = p.Busy()
	})
	e.Run(1 << 30)
	e.Stop()
	if busy != 55 {
		t.Fatalf("busy = %d, want 55 (wrappers must still charge)", busy)
	}
}

// TestSpinlockEmitsSpinSpan: contended acquisition is attributed to an
// automatic "spin:<name>" span.
func TestSpinlockEmitsSpinSpan(t *testing.T) {
	e := NewEngine()
	sink := &recSink{}
	e.SetObserver(sink)
	l := NewSpinlock("invq", "sw", LockCosts{Uncontended: 4, HandoffBase: 8, HandoffPerWaiter: 2})
	for i := 0; i < 2; i++ {
		e.Spawn("w", i, 0, func(p *Proc) {
			l.Lock(p)
			p.Work("sw", 100)
			l.Unlock(p)
		})
	}
	e.Run(1 << 30)
	e.Stop()
	found := false
	for _, sp := range sink.spans {
		if sp.path == "spin:invq" && sp.self > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no spin:invq span with nonzero self cycles; spans: %v", sink.spans)
	}
}

// TestTimelineFollowsSink: Engine.Timeline hands out the sink only when
// one is installed and says it records a timeline.
func TestTimelineFollowsSink(t *testing.T) {
	e := NewEngine()
	if e.Timeline() != nil {
		t.Error("Timeline() != nil with no sink")
	}
	e.SetObserver(&recSink{})
	if e.Timeline() != nil {
		t.Error("Timeline() != nil for a profiler-only sink")
	}
	sink := &recSink{timeline: true}
	e.SetObserver(sink)
	if e.Timeline() != sink {
		t.Error("Timeline() did not return the timeline sink")
	}
	e.SetObserver(nil)
	if e.Timeline() != nil {
		t.Error("Timeline() != nil after the sink was removed")
	}
}
