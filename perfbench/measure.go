package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 5

// timeSetup builds a workload environment setupRepeats times and returns
// the last one with the median set-up time in seconds. Every earlier
// instance is torn down with the close function it returned. Each set-up
// starts with the free heap handed back to the OS, so each one grows and
// first-touches its heap as the first does; what repeats cannot reproduce
// is the rest of a cold start (process start, a cold page cache).
func timeSetup[T any](setup func() (T, func(), error)) (T, func(), float64, error) {
	var env T
	var closeFn func()
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if closeFn != nil {
			closeFn()
		}
		debug.FreeOSMemory()
		start := time.Now()
		e, c, err := setup()
		if err != nil {
			return env, nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		env, closeFn = e, c
	}
	return env, closeFn, median(secs), nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// msSince is the host milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// memDelta is the Go heap activity between two points of a run.
type memDelta struct {
	bytes, allocs uint64
}

// heapCounters returns the cumulative bytes and objects allocated.
func heapCounters() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{bytes: ms.TotalAlloc, allocs: ms.Mallocs}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{bytes: a.bytes - b.bytes, allocs: a.allocs - b.allocs}
}

// timedPass runs one pass from a freshly collected heap, so every pass
// starts in the same GC state and no pass pays for collecting the one
// before it, and returns its host seconds and heap activity.
func timedPass(pass func() error) (float64, memDelta, error) {
	runtime.GC()
	m0 := heapCounters()
	start := time.Now()
	err := pass()
	secs := time.Since(start).Seconds()
	return secs, heapCounters().since(m0), err
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// setCommon records the end-to-end metrics every workload reports from
// its passes: host seconds, heap bytes and heap objects per pass (as
// medians over the passes), peak RSS, and the median and 90th percentile
// host latency of the workload's individual operations.
func (r *run) setCommon(passSecs []float64, passMem []memDelta, opMs []float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var mb, allocs []float64
	for _, d := range passMem {
		mb = append(mb, float64(d.bytes)/(1<<20))
		allocs = append(allocs, float64(d.allocs))
	}
	r.set("wall_s", "s", median(passSecs))
	r.set("heap_alloc_mb", "MB", median(mb))
	r.set("allocs_per_pass", "count", median(allocs))
	r.set("peak_rss_mb", "MB", rss)
	r.set("op_p50_ms", "ms", quantile(opMs, 0.5))
	r.set("op_p90_ms", "ms", quantile(opMs, 0.9))
	return nil
}
