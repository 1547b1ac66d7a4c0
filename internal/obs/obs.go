// Package obs is the simulation-time observability layer: it explains
// *where the virtual cycles went*, in the same vocabulary the paper uses
// for its breakdown figures (Figs. 5, 6, 8a, 9).
//
// Three cooperating pieces:
//
//   - Profiler — a cycle-attribution profiler fed by hierarchical spans
//     (sim.SpanSink). Subsystems open spans around their cost sites
//     ("map/iova-alloc", "unmap/inval/inval-wait", "spin:iova", ...) and
//     the profiler accumulates exclusive ("self") and inclusive busy
//     cycles per span path and per core. Group() folds paths into the
//     paper's breakdown categories (iova, pt-mgmt, invalidate, lock/spin,
//     copy, copy-mgmt, ...).
//
//   - Registry — a metrics registry (counters, gauges, distributions
//     summarized via internal/stats) that unifies the ad-hoc counters
//     scattered through iommu, shadow, iova, nic and the engine under
//     dotted "subsystem.metric" names (see publish.go).
//
//   - Recorder — captures the same spans as timeline slices, plus the
//     events no proc owns (the IOMMU's maps, unmaps, invalidations and
//     faults, reported through sim.SpanSink.Event), and writes Chrome
//     trace-event JSON (chrometrace.go) loadable in Perfetto or
//     chrome://tracing: per-core tracks, spans as slices, IOMMU events as
//     instants on their own track. Dump prints the IOMMU events as text.
//
// Everything is opt-in per engine: sim procs carry span hooks that are a
// single nil check when no Observer is installed, spans never charge
// cycles, and therefore virtual-time results are bit-identical with
// observability on or off (ci/baseline.json is the proof). See
// doc/OBSERVABILITY.md for the user guide and span taxonomy.
package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Observer bundles the pieces and implements sim.SpanSink, fanning each
// completed span out to the profiler and (when tracing) the recorder.
// Install with eng.SetObserver(o) before spawning procs. An Observer is
// per-engine state (the engine dispatches one proc at a time); never share
// one across concurrently-running machines.
type Observer struct {
	Prof *Profiler
	Rec  *Recorder // nil unless a timeline trace was requested
	Reg  *Registry
}

// New returns an Observer with a profiler and registry; pass trace=true to
// also record the timeline for Chrome trace export.
func New(trace bool) *Observer {
	o := &Observer{Prof: NewProfiler(), Reg: NewRegistry()}
	if trace {
		o.Rec = NewRecorder(0)
	}
	return o
}

// SpanEnd implements sim.SpanSink.
func (o *Observer) SpanEnd(p *sim.Proc, path string, self, total, start, end uint64) {
	o.Prof.add(path, p.Core(), self, total)
	if o.Rec != nil {
		o.Rec.slice(path, p.Core(), start, end)
	}
}

// SpanInstant implements sim.SpanSink.
func (o *Observer) SpanInstant(p *sim.Proc, name string, at uint64) {
	o.Prof.instant(name)
	if o.Rec != nil {
		o.Rec.instant(name, p.Core(), at)
	}
}

// Event implements sim.SpanSink.
func (o *Observer) Event(cat, msg string, at uint64) {
	if o.Rec != nil {
		o.Rec.event(cat, msg, at)
	}
}

// Timeline reports whether o records a timeline. The engine asks once, at
// SetObserver, and hands event sources the sink only when it does.
func (o *Observer) Timeline() bool { return o.Rec != nil }

// WriteTraceFile writes the recorded timeline as Chrome trace-event JSON
// at path.
func (o *Observer) WriteTraceFile(path string) error {
	if o.Rec == nil {
		return fmt.Errorf("obs: no timeline recorded (construct the Observer with New(true))")
	}
	return o.Rec.WriteChromeTraceFile(path)
}
