package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cycles"
)

// Recorder captures the simulated timeline for Chrome trace-event export:
// every completed span becomes a complete ("X") slice on its core's track,
// every instant a point ("i") event, every IOMMU event a point event on
// the iommu track. Capacity-bounded so a long run cannot exhaust host
// memory: each kind keeps its first max entries; overflow is counted, not
// fatal.
type Recorder struct {
	slices   []traceSlice
	instants []traceInstant
	events   []traceEvent
	max      int
	// Dropped counts entries discarded after the capacity was reached.
	Dropped uint64
}

type traceSlice struct {
	name       string
	core       int
	start, end uint64
}

type traceInstant struct {
	name string
	core int
	at   uint64
}

// traceEvent is one event no proc owns, in emission order.
type traceEvent struct {
	cat, msg string
	at       uint64
}

// DefaultRecorderCap bounds the recorded slice count (~64 B per slice).
const DefaultRecorderCap = 1 << 20

// NewRecorder returns a recorder holding up to max slices (and as many
// instants and as many events); max <= 0 selects DefaultRecorderCap.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultRecorderCap
	}
	return &Recorder{max: max}
}

func (r *Recorder) slice(name string, core int, start, end uint64) {
	if len(r.slices) >= r.max {
		r.Dropped++
		return
	}
	r.slices = append(r.slices, traceSlice{name: name, core: core, start: start, end: end})
}

func (r *Recorder) instant(name string, core int, at uint64) {
	if len(r.instants) >= r.max {
		r.Dropped++
		return
	}
	r.instants = append(r.instants, traceInstant{name: name, core: core, at: at})
}

func (r *Recorder) event(cat, msg string, at uint64) {
	if len(r.events) >= r.max {
		r.Dropped++
		return
	}
	r.events = append(r.events, traceEvent{cat: cat, msg: msg, at: at})
}

// Dump writes the recorded IOMMU events as text, one per line:
// timestamp in microseconds of the simulation clock (cycles.Hz),
// category, message.
func (r *Recorder) Dump(w io.Writer) {
	for _, e := range r.events {
		fmt.Fprintf(w, "%12.3fus %-6s %s\n", cyclesToUs(e.at), e.cat, e.msg)
	}
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Perfetto and chrome://tracing both load the JSON-object flavour:
// {"traceEvents": [...]}.
type chromeEvent struct {
	Name  string                 `json:"name"`
	Cat   string                 `json:"cat,omitempty"`
	Phase string                 `json:"ph"`
	TS    float64                `json:"ts"`            // microseconds
	Dur   float64                `json:"dur,omitempty"` // microseconds, ph=X only
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"` // ph=i scope
	Args  map[string]interface{} `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process IDs in the exported trace: CPU cores are threads of pid 0, the
// IOMMU's events land on pid 1.
const (
	chromePIDCores = 0
	chromePIDIOMMU = 1
)

func cyclesToUs(c uint64) float64 { return float64(c) / (cycles.Hz / 1e6) }

// WriteChromeTrace renders the recorded timeline — with the IOMMU's
// events, if any, as instants on a separate "iommu" process — as Chrome
// trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	cores := map[int]bool{}
	for _, s := range r.slices {
		cores[s.core] = true
	}
	for _, in := range r.instants {
		cores[in.core] = true
	}
	coreIDs := make([]int, 0, len(cores))
	for c := range cores {
		coreIDs = append(coreIDs, c)
	}
	sort.Ints(coreIDs)

	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: chromePIDCores,
		Args: map[string]interface{}{"name": "cpu"},
	})
	for _, c := range coreIDs {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: chromePIDCores, TID: c,
			Args: map[string]interface{}{"name": coreName(c)},
		})
	}

	for _, s := range r.slices {
		dur := cyclesToUs(s.end - s.start)
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: s.name, Cat: "span", Phase: "X",
			TS: cyclesToUs(s.start), Dur: dur,
			PID: chromePIDCores, TID: s.core,
		})
	}
	for _, in := range r.instants {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: in.name, Cat: "event", Phase: "i",
			TS: cyclesToUs(in.at), PID: chromePIDCores, TID: in.core,
			Scope: "t",
		})
	}

	if len(r.events) > 0 {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: chromePIDIOMMU,
			Args: map[string]interface{}{"name": "iommu"},
		})
		for _, e := range r.events {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: e.cat, Cat: "iommu", Phase: "i",
				TS: cyclesToUs(e.at), PID: chromePIDIOMMU, TID: 0,
				Scope: "p",
				Args:  map[string]interface{}{"msg": e.msg},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// WriteChromeTraceFile is WriteChromeTrace to a new file at path.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func coreName(c int) string {
	// Small, allocation-free itoa for track names.
	if c < 0 {
		return "core?"
	}
	var buf [16]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + c%10)
		c /= 10
		if c == 0 {
			break
		}
	}
	return "core" + string(buf[i:])
}
