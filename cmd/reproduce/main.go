// Command reproduce regenerates the paper's ENTIRE evaluation — every
// table and figure, the attack matrix, the memory measurement — plus this
// reproduction's extension studies, as one self-contained report. Every
// section's individual data points fan out across one shared bench.Farm
// (bounded by -parallel); the printed report order and every number are
// unchanged at any worker count (see doc/FARM.md).
//
//	go run ./cmd/reproduce > report.txt
//	go run ./cmd/reproduce -window 1 -json BENCH_smoke.json
//	go run ./cmd/reproduce -experiment fig3,storage -parallel 4
//	go run ./cmd/reproduce -experiment fig10 -cyclereport -tracefile rr.json
//
// The flags become an internal/runspec Spec, executed by runspec.Execute
// exactly as the simd daemon executes it. With -json the artifact
// (internal/report schema) is also written for the cmd/benchdiff
// regression gate; "-json auto" derives the filename as
// BENCH_<YYYY-MM-DD>.json. When a section fails, the completed sections
// are still written to the -json path as a partial diagnostic artifact.
//
// -cyclereport appends the cycle-attribution table of every selected
// section's workload (fig6, fig8a, fig10, fig11, apimicro name one), and
// -tracefile records the first selected section's workload as a Chrome
// trace (Figure 6's 16-core MTU receive point when none names one).
//
// -timeout bounds the whole run: on expiry the farm cancels queued data
// points, the completed sections land in the partial artifact, and the
// process exits 1 (a hard watchdog force-exits at 2x if cancellation
// wedges). -daemon <socket> skips in-process computation entirely and
// requests the artifact from a running simd (doc/DAEMON.md), which serves
// memoized results instantly when the tree hasn't changed; it rejects the
// flags that only shape an in-process run (exit 2).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/daemon"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runspec"
)

func artifactPath(jsonOut string) string {
	if jsonOut == "auto" {
		return fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	return jsonOut
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the process exit code (0 ok,
// 1 run failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := runspec.Spec{Tool: "reproduce"}
	fs.Float64Var(&spec.WindowMs, "window", 10, "simulated milliseconds per data point")
	fs.BoolVar(&spec.SkipSensitivity, "skip-sensitivity", false, "with -experiment all, skip the slow extended sections (windowsweep, fig8b, memdetail, sensitivity)")
	fs.StringVar(&spec.Experiments, "experiment", "all", "comma-separated experiment names (table1,windowsweep,fig1,...,sensitivity), or 'all'")
	fs.BoolVar(&spec.CycleReport, "cyclereport", false, "append each selected section's cycle-attribution table (simulated-cycle profiler, doc/OBSERVABILITY.md)")
	jsonOut := fs.String("json", "", "also write a machine-readable artifact to this path (\"auto\" = BENCH_<date>.json)")
	parallel := fs.Int("parallel", 0, "farm workers for data-point parallelism (<=0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	traceFile := fs.String("tracefile", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the first selected section's workload to this path")
	timeout := fs.Duration("timeout", 0, "abort after this wall-clock duration; completed sections become a partial diagnostic artifact (0 = unbounded)")
	daemonSock := fs.String("daemon", "", "request the artifact from a running simd daemon at this unix socket instead of computing in-process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := spec.Normalize()
	if err != nil {
		fmt.Fprintf(stderr, "reproduce: %v\n", err)
		return 2
	}

	start := time.Now()
	var a *report.Artifact
	if *daemonSock != "" {
		var local []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tracefile", "cpuprofile", "memprofile", "parallel":
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			fmt.Fprintf(stderr, "reproduce: -daemon cannot honour %s (the daemon computes on its own farm)\n",
				strings.Join(local, ", "))
			return 2
		}
		a, err = viaDaemon(*daemonSock, spec, *timeout, stderr)
	} else {
		stop, perr := prof.Start(*cpuProfile, *memProfile)
		if perr != nil {
			fmt.Fprintf(stderr, "reproduce: %v\n", perr)
			return 1
		}
		defer stop()
		a, err = compute(spec, *parallel, *timeout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "reproduce: %v\n", err)
		if a != nil && *jsonOut != "" {
			path := artifactPath(*jsonOut)
			if werr := a.WriteFile(path); werr != nil {
				fmt.Fprintf(stderr, "reproduce: writing partial artifact: %v\n", werr)
			} else {
				fmt.Fprintf(stderr, "reproduce: partial diagnostic artifact written to %s\n", path)
			}
		}
		return 1
	}

	fmt.Fprintln(stdout, "Reproduction report: True IOMMU Protection from DMA Attacks (ASPLOS'16)")
	fmt.Fprintf(stdout, "window: %.0f simulated ms per data point\n\n", spec.WindowMs)
	for _, e := range a.Experiments {
		fmt.Fprintln(stdout, e)
	}
	if *traceFile != "" {
		if err := spec.TraceWorkload().WriteTrace(bench.Options{WindowMs: spec.WindowMs}, *traceFile); err != nil {
			fmt.Fprintf(stderr, "reproduce: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "Chrome trace written to %s (load at https://ui.perfetto.dev)\n\n", *traceFile)
	}
	fmt.Fprintf(stdout, "report complete in %s (wall clock)\n", time.Since(start).Round(time.Second))
	if *jsonOut != "" {
		path := artifactPath(*jsonOut)
		if err := a.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "reproduce: writing artifact: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "artifact written to %s\n", path)
	}
	return 0
}

// compute executes the spec in-process under the optional timeout. On
// failure the artifact, when non-nil, holds the completed sections.
func compute(spec runspec.Spec, parallel int, timeout time.Duration) (*report.Artifact, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		// Hard watchdog: cooperative cancellation drains the farm queue but
		// lets executing points finish; if one wedges, force the exit at 2x.
		watchdog := time.AfterFunc(2*timeout, func() {
			fmt.Fprintf(os.Stderr, "reproduce: watchdog: run still alive %s after the %s timeout, force-exiting\n",
				timeout, timeout)
			os.Exit(1)
		})
		defer watchdog.Stop()
	}
	a, err := runspec.Run(ctx, spec, parallel)
	if err != nil && ctx.Err() != nil {
		// err is an errors.Join over every canceled point — hundreds of
		// identical lines; the timeout itself is the whole story.
		err = fmt.Errorf("timed out after %s, queued data points canceled", timeout)
	}
	return a, err
}

// viaDaemon delegates the whole run to a simd daemon. The daemon
// computes with its warm farm (or serves the memoized artifact when the
// same binary already ran this spec) through the same runspec.Execute.
func viaDaemon(socket string, spec runspec.Spec, timeout time.Duration, stderr io.Writer) (*report.Artifact, error) {
	c := &daemon.Client{Socket: socket}
	start := time.Now()
	// noDegrade: the caller asked for the real report, never a preview.
	resp, err := c.Run(spec, timeout, false, true)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("daemon: %s: %s", resp.ErrKind, resp.Err)
	}
	a, err := report.Decode(bytes.NewReader(resp.Artifact))
	if err != nil {
		return nil, fmt.Errorf("daemon artifact: %w", err)
	}
	state := "computed"
	if resp.Cached {
		state = "memoized"
	}
	fmt.Fprintf(stderr, "reproduce: %s by daemon in %s: %d experiments, %d bytes, key %.12s\n",
		state, time.Since(start).Round(time.Millisecond), len(a.Experiments), len(resp.Artifact), resp.Key)
	return a, nil
}
