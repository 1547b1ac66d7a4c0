package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iommu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// profileAt runs one profiled 16-core RX point and returns its profile.
func profileAt(t *testing.T, sys string, msgSize int) *obs.Profile {
	t.Helper()
	cfg := DefaultConfig(sys, RX, 16, msgSize)
	cfg.WindowMs = 2
	cfg.Obs = obs.New(false)
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s/%d: %v", sys, msgSize, err)
	}
	if r.Profile == nil {
		t.Fatalf("%s/%d: no profile despite Config.Obs", sys, msgSize)
	}
	return r.Profile
}

// TestCycleCoverage is the tentpole acceptance bar: on the Figure 6 and
// Figure 8a workload points, named spans must attribute at least 95% of
// every system's busy cycles.
func TestCycleCoverage(t *testing.T) {
	for _, msg := range []int{1500, 65536} {
		for _, sys := range AllSystems {
			msg, sys := msg, sys
			t.Run(fmt.Sprintf("%s/%d", sys, msg), func(t *testing.T) {
				t.Parallel()
				p := profileAt(t, sys, msg)
				if p.TotalBusy == 0 {
					t.Fatal("no busy cycles recorded")
				}
				if cov := p.Coverage(); cov < 0.95 {
					t.Errorf("span coverage %.1f%% < 95%% (attributed %d of %d busy cycles)",
						100*cov, p.Attributed(), p.TotalBusy)
				}
			})
		}
	}
}

// TestCycleBreakdownOrdering checks the profile agrees with the paper's
// breakdown story at the 16-core MTU point: strict and identity+ pay for
// IOTLB invalidation and the lock spinning it causes, while the copy
// strategy pays for copies and shadow-pool management instead.
func TestCycleBreakdownOrdering(t *testing.T) {
	for _, sys := range []string{SysLinuxStrict, SysIdentityStrict} {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			t.Parallel()
			p := profileAt(t, sys, 1500)
			inval := p.GroupCycles("invalidate") + p.GroupCycles("lock/spin")
			for _, other := range []string{"copy", "iova", "pt-mgmt"} {
				if oc := p.GroupCycles(other) + p.GroupCycles(other+"-mgmt"); inval <= oc {
					t.Errorf("invalidate+lock/spin (%d) does not dominate %s (%d)", inval, other, oc)
				}
			}
		})
	}
	t.Run(SysCopy, func(t *testing.T) {
		t.Parallel()
		p := profileAt(t, SysCopy, 1500)
		cp := p.GroupCycles("copy") + p.GroupCycles("copy-mgmt")
		for _, other := range []string{"invalidate", "lock/spin", "iova", "pt-mgmt"} {
			if oc := p.GroupCycles(other); cp <= oc {
				t.Errorf("copy+copy-mgmt (%d) does not dominate %s (%d)", cp, other, oc)
			}
		}
		if inv := p.GroupCycles("invalidate"); inv != 0 {
			t.Errorf("copy strategy attributed %d invalidation cycles; shadowing never invalidates", inv)
		}
	})
}

// TestCycleReportTables exercises every section workload's -cyclereport
// table builder end to end.
func TestCycleReportTables(t *testing.T) {
	opt := Options{WindowMs: 0.5}
	for _, sec := range Suite(false) {
		if sec.Workload == nil {
			continue
		}
		tbl, err := sec.Workload.CycleTable(opt)
		if err != nil {
			t.Fatalf("%s: %v", sec.Name, err)
		}
		if tbl.Name != sec.Workload.Name {
			t.Errorf("%s: cycle table named %q, want %q", sec.Name, tbl.Name, sec.Workload.Name)
		}
		if len(tbl.Rows) < 3 || len(tbl.Series) != len(sec.Workload.Systems) {
			t.Errorf("%s: degenerate table (%d rows, %d series)", tbl.Name, len(tbl.Rows), len(tbl.Series))
		}
		for _, s := range tbl.Series {
			// A system with no busy cycles (no-iommu's bare map/unmap
			// loop) has nothing to attribute.
			m := s.Points[0].Metrics
			if m["busy_mcycles"] > 0 && m["coverage"] < 0.95 {
				t.Errorf("%s/%s: coverage %.3f < 0.95", tbl.Name, s.System, m["coverage"])
			}
		}
	}
}

// TestWriteTraceChromeSchema validates the -tracefile output end to end:
// the produced file must be Chrome trace-event JSON that Perfetto accepts —
// an object with a traceEvents array whose entries carry the phase-specific
// required fields.
func TestWriteTraceChromeSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	w := streamWorkload("cycles-test", "test", RX, 2, 1500)
	if err := w.WriteTrace(Options{WindowMs: 1}, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var slices, iommuEvents, threadNames int
	for i, ev := range f.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event %d missing name/ph: %v", i, ev)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d missing numeric ts: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d missing numeric pid: %v", i, ev)
		}
		switch ph {
		case "X":
			slices++
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Fatalf("event %d negative dur: %v", i, ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" && s != "p" {
				t.Fatalf("event %d instant without valid scope: %v", i, ev)
			}
			if c, _ := ev["cat"].(string); c == "iommu" {
				iommuEvents++
			}
		case "M":
			if name == "thread_name" {
				threadNames++
			}
		default:
			t.Fatalf("event %d unexpected phase %q", i, ph)
		}
	}
	if slices == 0 {
		t.Error("no span slices recorded")
	}
	if threadNames == 0 {
		t.Error("no thread_name metadata (core tracks unnamed)")
	}
	if iommuEvents == 0 {
		t.Error("no IOMMU events exported (strict RX must invalidate)")
	}
}

// TestIOMMUEventsReachChromeTrace drives one map, fault, unmap and
// invalidation on a machine observed by obs.New(true) and checks that each
// lands as an instant on the pid-1 "iommu" process of the exported trace,
// with no wiring beyond Config.Obs.
func TestIOMMUEventsReachChromeTrace(t *testing.T) {
	cfg := DefaultConfig(SysLinuxStrict, RX, 1, 1500)
	cfg.Obs = obs.New(true)
	mach, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mach.Mem.Release()
	u, dev := mach.IOMMU, mach.Env.Dev
	phys, err := mach.Mem.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const iova = iommu.IOVA(0x9000)
	if err := u.Map(dev, iova, phys, 100, iommu.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, _, f := u.Translate(dev, iova, iommu.PermWrite); f == nil {
		t.Fatal("write through a read-only mapping did not fault")
	}
	if err := u.Unmap(dev, iova, 100); err != nil {
		t.Fatal(err)
	}
	mach.Eng.Spawn("inval", 0, 0, func(p *sim.Proc) {
		u.Queue.Lock.Lock(p)
		u.Queue.WaitFor(p, u.Queue.SubmitPages(p, dev, iova.Page(), 1))
		u.Queue.Lock.Unlock(p)
	})
	mach.Eng.Run(1 << 30)
	mach.Eng.Stop()

	var buf bytes.Buffer
	if err := cfg.Obs.Rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Cat   string            `json:"cat"`
			Phase string            `json:"ph"`
			PID   int               `json:"pid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	named := false
	got := map[string]int{}
	for _, ev := range f.TraceEvents {
		if ev.PID != 1 {
			continue
		}
		switch {
		case ev.Phase == "M" && ev.Name == "process_name":
			named = ev.Args["name"] == "iommu"
		case ev.Phase == "i" && ev.Cat == "iommu" && ev.Args["msg"] != "":
			got[ev.Name]++
		default:
			t.Errorf("unexpected pid-1 event %+v", ev)
		}
	}
	if !named {
		t.Error(`pid 1 is not named "iommu"`)
	}
	for _, want := range []string{"map", "unmap", "inval", "fault"} {
		if got[want] != 1 {
			t.Errorf("%q instants on the iommu process = %d, want 1 (all: %v)", want, got[want], got)
		}
	}
}

// TestProfileAbsentByDefault: without Config.Obs the runner must not
// attach a profile (and, by the baseline gate, must not change behavior).
func TestProfileAbsentByDefault(t *testing.T) {
	cfg := DefaultConfig(SysNoIOMMU, RX, 1, 1500)
	cfg.WindowMs = 1
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile != nil {
		t.Error("Profile set without an observer")
	}
}
