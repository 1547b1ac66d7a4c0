// Package trace provides a lightweight ring-buffer event tracer for the
// simulation. The IOMMU emits mapping, invalidation and fault events into
// it, giving the same visibility a kernel developer gets from the
// intel-iommu tracepoints — invaluable when debugging why a DMA faulted or
// which strategy left a stale mapping behind.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cycles"
)

// Standard event categories.
const (
	CatMap    = "map"
	CatUnmap  = "unmap"
	CatInval  = "inval"
	CatFault  = "fault"
	CatDMA    = "dma"
	CatCustom = "custom"
)

// Event is one trace record.
type Event struct {
	At  uint64 // virtual time, cycles
	Cat string
	Msg string
	Seq uint64 // tie-breaker for identical timestamps
}

// Tracer is a fixed-capacity ring of events. The zero value is a disabled
// tracer: Emit is a cheap no-op, so instrumentation can stay in place.
type Tracer struct {
	ring    []Event
	next    int
	wrapped bool
	seq     uint64

	// Emitted counts every recorded event, including those the ring has
	// since overwritten.
	Emitted uint64
}

// New creates a tracer holding the most recent `capacity` events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil && t.ring != nil }

// Emit records an event. Safe to call on a nil or zero tracer.
func (t *Tracer) Emit(at uint64, cat, format string, args ...interface{}) {
	if !t.Enabled() {
		return
	}
	t.seq++
	t.Emitted++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.ring[t.next] = Event{At: at, Cat: cat, Msg: fmt.Sprintf(format, args...), Seq: t.seq}
	t.next++
}

// Events returns the recorded events in chronological order.
func (t *Tracer) Events() []Event {
	if !t.Enabled() {
		return nil
	}
	var out []Event
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	// Defensive: the ring is already ordered, but sorting by seq keeps
	// the contract explicit.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the trace as text, one event per line. Timestamps are
// converted with the simulation clock (cycles.Hz), not a hard-coded rate.
func (t *Tracer) Dump(w io.Writer) {
	cyclesPerUs := cycles.Hz / 1e6
	for _, e := range t.Events() {
		us := float64(e.At) / cyclesPerUs
		fmt.Fprintf(w, "%12.3fus %-6s %s\n", us, e.Cat, e.Msg)
	}
}
