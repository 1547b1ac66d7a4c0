package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSpanAttribution checks the core invariant: exclusive (self) cycles
// are disjoint across nested spans and sum to the inclusive cost of the
// root span.
func TestSpanAttribution(t *testing.T) {
	eng := sim.NewEngine()
	o := New(false)
	eng.SetObserver(o)
	eng.Spawn("w", 0, 0, func(p *sim.Proc) {
		p.SpanEnter("map")
		p.Charge("other", 10) // map self
		p.SpanEnter("iova-alloc")
		p.Charge("iova", 100)
		p.SpanExit()
		p.SpanEnter("ptes")
		p.Charge("pt", 200)
		p.SpanExit()
		p.Charge("other", 5) // map self again
		p.SpanExit()
	})
	eng.Run(1 << 40)

	pf := o.Prof.Snapshot()
	got := map[string]SpanStat{}
	for _, s := range pf.Spans {
		got[s.Path] = s
	}
	if s := got["map/iova-alloc"]; s.Self != 100 || s.Total != 100 || s.Count != 1 {
		t.Errorf("iova-alloc = %+v", s)
	}
	if s := got["map/ptes"]; s.Self != 200 || s.Total != 200 {
		t.Errorf("ptes = %+v", s)
	}
	if s := got["map"]; s.Self != 15 || s.Total != 315 {
		t.Errorf("map = %+v, want self 15 total 315", s)
	}
	if a := pf.Attributed(); a != 315 {
		t.Errorf("attributed = %d, want 315 (no double counting)", a)
	}
	if len(got["map"].ByCore) != 1 || got["map"].ByCore[0] != 15 {
		t.Errorf("per-core attribution = %v", got["map"].ByCore)
	}
}

// TestSpanCapturesSpinWait checks that cycles accrued by a contended lock
// handoff (busy-wake, not Charge) land inside the enclosing span — this is
// what makes "spin:<lock>" spans measure real contention.
func TestSpanCapturesSpinWait(t *testing.T) {
	eng := sim.NewEngine()
	o := New(false)
	eng.SetObserver(o)
	costs := sim.LockCosts{Uncontended: 10, HandoffBase: 50, HandoffPerWaiter: 20}
	l := sim.NewSpinlock("test", "spin", costs)
	eng.Spawn("a", 0, 0, func(p *sim.Proc) {
		l.Lock(p)
		p.Work("other", 1000) // hold while b arrives
		l.Unlock(p)
	})
	eng.Spawn("b", 1, 0, func(p *sim.Proc) {
		p.Charge("other", 1) // desync so b contends
		l.Lock(p)
		l.Unlock(p)
	})
	eng.Run(1 << 40)

	pf := o.Prof.Snapshot()
	var spin SpanStat
	for _, s := range pf.Spans {
		if s.Path == "spin:test" {
			spin = s
		}
	}
	if spin.Count != 2 {
		t.Fatalf("spin:test count = %d, want 2", spin.Count)
	}
	// a: uncontended acquire (10). b: spun from clock 1 until a's unlock
	// at 1010, plus the handoff penalty 50+20 = 1079 busy cycles.
	want := uint64(10 + 1009 + 70)
	if spin.Self != want {
		t.Errorf("spin:test self = %d, want %d", spin.Self, want)
	}
	if Group("rx/stack/spin:test") != "lock/spin" {
		t.Errorf("Group(spin path) = %q", Group("rx/stack/spin:test"))
	}
}

// TestDisabledPathIsInert: without an observer, span calls must not touch
// clocks or accounting at all.
func TestDisabledPathIsInert(t *testing.T) {
	eng := sim.NewEngine()
	var busy, clock uint64
	eng.Spawn("w", 0, 0, func(p *sim.Proc) {
		p.SpanEnter("x")
		p.ChargeSpan("y", "tag", 7)
		p.SpanInstant("z")
		p.SpanExit()
		p.SpanExit() // extra exits must be harmless
		busy, clock = p.Busy(), p.Now()
	})
	eng.Run(1 << 40)
	if busy != 7 || clock != 7 {
		t.Errorf("busy=%d clock=%d, want 7/7 (spans must not charge)", busy, clock)
	}
	if !testingProcUnobserved(eng) {
		t.Error("proc reports Observed without a sink")
	}
}

func testingProcUnobserved(e *sim.Engine) bool {
	for _, p := range e.Procs() {
		if p.Observed() {
			return false
		}
	}
	return true
}

func TestGroupClassifier(t *testing.T) {
	cases := map[string]string{
		"map/iova-alloc":             "iova",
		"unmap/iova-free":            "iova",
		"map/ptes":                   "pt-mgmt",
		"unmap/inval/inval-wait":     "invalidate",
		"unmap/inval-submit":         "invalidate",
		"map/copy-in":                "copy",
		"unmap/copy-out":             "copy",
		"map/pool-acquire":           "copy-mgmt",
		"unmap/pool-release":         "copy-mgmt",
		"rx/stack":                   "rx",
		"rx/copy-user":               "copy-user",
		"tx/skb":                     "tx",
		"unmap/spin:invq/inval-wait": "lock/spin", // spin wins over leaf
	}
	for path, want := range cases {
		if got := Group(path); got != want {
			t.Errorf("Group(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestChromeTraceSchema validates the exported JSON against the trace-event
// format contract: traceEvents array, ph/ts/pid/tid on every event, dur on
// complete events, metadata naming the tracks.
func TestChromeTraceSchema(t *testing.T) {
	eng := sim.NewEngine()
	o := New(true)
	eng.SetObserver(o)
	eng.Timeline().Event("fault", "dev 3", 5)
	eng.Spawn("w", 2, 0, func(p *sim.Proc) {
		p.SpanEnter("rx")
		p.Charge("other", 240)
		p.SpanInstant("drop")
		p.SpanExit()
	})
	eng.Run(1 << 40)

	var buf bytes.Buffer
	if err := o.Rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawSlice, sawInstant, sawThreadName, sawIOMMU bool
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event missing ph: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event missing tid: %v", ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event missing name: %v", ev)
		}
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
			if ev["name"] == "rx" && ev["tid"].(float64) == 2 {
				sawSlice = true
			}
		case "i":
			if s, _ := ev["s"].(string); s == "" {
				t.Fatalf("instant missing scope: %v", ev)
			}
			if ev["name"] == "drop" {
				sawInstant = true
			}
			if cat, _ := ev["cat"].(string); cat == "iommu" && ev["pid"].(float64) == 1 {
				sawIOMMU = true
			}
		case "M":
			if ev["name"] == "thread_name" {
				sawThreadName = true
			}
		}
	}
	if !sawSlice || !sawInstant || !sawThreadName || !sawIOMMU {
		t.Errorf("missing event kinds: slice=%v instant=%v meta=%v iommu=%v",
			sawSlice, sawInstant, sawThreadName, sawIOMMU)
	}
	// duration of the 240-cycle span at 2.4 GHz = 0.1 µs
	for _, ev := range f.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "rx" {
			if d := ev["dur"].(float64); d < 0.099 || d > 0.101 {
				t.Errorf("dur = %v µs, want 0.1", d)
			}
		}
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("iommu.iotlb.hits", 10)
	r.AddCounter("iommu.iotlb.hits", 5)
	r.Gauge("shadow.pool.bytes", 4096)
	r.Observe("lat.us", 1)
	r.Observe("lat.us", 3)
	s := r.Snapshot()
	if s.Counters["iommu.iotlb.hits"] != 15 {
		t.Errorf("counter = %d", s.Counters["iommu.iotlb.hits"])
	}
	if s.Gauges["shadow.pool.bytes"] != 4096 {
		t.Errorf("gauge = %v", s.Gauges["shadow.pool.bytes"])
	}
	if d := s.Distributions["lat.us"]; d.Count != 2 || d.Mean != 2 {
		t.Errorf("dist = %+v", d)
	}
	if s.String() == "" {
		t.Error("empty render")
	}
}

// TestRecorderCap: the recorder drops, not grows, past its bound.
func TestRecorderCap(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.slice("s", 0, uint64(i), uint64(i+1))
	}
	for i := 0; i < 3; i++ {
		r.event("map", "m", uint64(i))
	}
	if len(r.slices) != 2 || len(r.events) != 2 || r.Dropped != 4 {
		t.Errorf("slices=%d events=%d dropped=%d", len(r.slices), len(r.events), r.Dropped)
	}
}

func TestDumpFormat(t *testing.T) {
	o := New(true)
	o.Event("fault", "dev 1 iova 0x5000", 2400)
	var b strings.Builder
	o.Rec.Dump(&b)
	if want := "       1.000us fault  dev 1 iova 0x5000\n"; b.String() != want {
		t.Errorf("dump = %q, want %q", b.String(), want)
	}
}

func TestDumpFrequency(t *testing.T) {
	r := NewRecorder(4)
	r.event("map", "m", 4800)
	var b strings.Builder
	r.Dump(&b)
	// 4800 cycles at the simulation's 2.4 GHz clock is 2 us.
	if !strings.Contains(b.String(), "2.000us") {
		t.Errorf("default-frequency dump: %q", b.String())
	}
}
