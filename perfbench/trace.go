package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, on the host's monotonic clock.
type span struct {
	name       string // layer call, e.g. "sim.run", "dmaapi.map"
	point      int    // the sweep point whose engine made the call
	start, end int64  // ns since the log's epoch
}

// spanLog collects the spans of one sweep point in memory. A point runs
// on one engine, and an engine runs exactly one proc at a time, handing
// the baton over channels — so the procs' appends are ordered without a
// lock, and all of a point's spans lie on one timeline.
type spanLog struct {
	point int
	epoch time.Time
	spans []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// add records a span that began at start and ends now.
func (l *spanLog) add(name string, start int64) {
	l.spans = append(l.spans, span{name: name, point: l.point, start: start, end: l.now()})
}

// selfTimes attributes every instant of one point's timeline to the
// innermost span open at that instant — the one that started last — and
// returns each span's self time and parent (the innermost span open when
// it started; -1 for none).
//
// For properly nested spans, self time is the duration minus the child
// spans it covers. Spans can also overlap without nesting: a Map that
// yields on a spinlock lets another proc start a Map, and the first can
// finish before the second does. Attributing each instant once keeps the
// self times of all spans summing to the time covered by any span.
//
// All spans must belong to one point: spans of two engines running at the
// same time on two farm workers are unrelated and must never be
// subtracted from each other.
func selfTimes(spans []span) (self []int64, parent []int) {
	type event struct {
		t     int64
		close bool
		i     int
	}
	ev := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		ev = append(ev, event{s.start, false, i}, event{s.end, true, i})
	}
	sort.Slice(ev, func(a, b int) bool {
		if ev[a].t != ev[b].t {
			return ev[a].t < ev[b].t
		}
		if ev[a].close != ev[b].close {
			return ev[a].close // a span ending at t is not open after t
		}
		return ev[a].i < ev[b].i
	})
	self = make([]int64, len(spans))
	parent = make([]int, len(spans))
	var open []int // open spans in the order they started
	var last int64
	for _, e := range ev {
		if n := len(open); n > 0 {
			self[open[n-1]] += e.t - last
		}
		last = e.t
		if !e.close {
			parent[e.i] = -1
			if n := len(open); n > 0 {
				parent[e.i] = open[n-1]
			}
			open = append(open, e.i)
			continue
		}
		for k := len(open) - 1; k >= 0; k-- {
			if open[k] == e.i {
				open = append(open[:k], open[k+1:]...)
				break
			}
		}
	}
	return self, parent
}

// pointTrace is one point's spans with their self times and parents.
type pointTrace struct {
	spans  []span
	self   []int64
	parent []int
}

func newPointTrace(spans []span) pointTrace {
	self, parent := selfTimes(spans)
	return pointTrace{spans: spans, self: self, parent: parent}
}

// writeSpans writes the spans of every point as tab-separated lines —
// point, id, parent id, name, start ns, end ns, self ns — with ids unique
// across points.
func writeSpans(path string, points []pointTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "point\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")
	base := 0
	for _, pt := range points {
		for i, s := range pt.spans {
			p := -1
			if pt.parent[i] >= 0 {
				p = base + pt.parent[i]
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.point, base+i, p, s.name, s.start, s.end, pt.self[i])
		}
		base += len(pt.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
