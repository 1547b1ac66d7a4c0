// Command perfbench is the repository benchmark. It measures host time —
// how fast the simulator gets through sweep points, DMAs and daemon
// requests — on three workloads, and checks on every run that the
// simulated results still match the committed baselines in ci/.
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// Workloads: paper-suite (the `make smoke` run), manycore-rx (TCP RX at 64
// and 128 simulated cores, every stock backend) and daemon-mixed (an
// in-process simd daemon under a seeded closed-loop request mix).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json, measured untraced; with
// --trace 1 they are the per-layer metrics of a traced layer run (see
// NOTES.md for what each metric means and which end-to-end metric it
// should move). A failed output check makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates the operations a benchmark run attempted, the ones that
// failed an output check, and the metrics it measured.
type run struct {
	root    string // repository checkout holding ci/ baselines
	work    string // scratch directory for stores, sockets and traces
	seed    int64
	seconds time.Duration
	workers int // farm workers and client goroutines: one per CPU

	attempted, failed int
	metrics           map[string]metric
}

// check counts one attempted operation and, when ok is false, one failure
// with its reason on standard error.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
	return ok
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func main() { os.Exit(benchMain()) }

// benchMain runs the benchmark and returns the exit code: 0 for a correct
// run, 1 when an output check failed, 2 when the run could not be
// measured at all (no result line).
func benchMain() int {
	workload := flag.String("workload", "", "paper-suite, manycore-rx or daemon-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced layer run")
	root := flag.String("root", ".", "repository checkout (holds ci/ baselines)")
	work := flag.String("work", ".bench_build/perfbench", "scratch directory for stores, sockets and span files")
	flag.Parse()

	measure := map[string]func(*run) error{
		"paper-suite":  runSuite,
		"manycore-rx":  runRx,
		"daemon-mixed": runDaemonMix,
	}[*workload]
	if measure == nil {
		return fail(fmt.Errorf("unknown workload %q (have paper-suite, manycore-rx, daemon-mixed)", *workload))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	// A private directory per process: concurrent runs never share a store.
	dir, err := os.MkdirTemp(*work, "run")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	r := &run{
		root:    *root,
		work:    dir,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(),
		metrics: map[string]metric{},
	}
	if *trace == 1 {
		err = runLayers(r, filepath.Join(*work, "spans-"+*workload+".tsv"))
	} else {
		err = measure(r)
	}
	if err != nil {
		return fail(err)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, "metric %s is %v", name, m.Value)
			r.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// fail reports a run that could not be measured at all.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 2
}
