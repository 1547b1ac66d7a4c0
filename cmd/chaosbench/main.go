// Command chaosbench runs the fault-injection scenarios of
// internal/chaos — fault storm, IOVA scan, invalidation-queue stall,
// shadow-pool squeeze — each as a baseline / resilience / unprotected
// triple, and reports goodput-under-attack and recovery metrics.
//
// Usage:
//
//	chaosbench [-seed 1] [-window 2] [-scenarios faultstorm,poolsqueeze]
//	chaosbench -json chaos.json        # machine-readable artifact
//	chaosbench -parallel 4             # variants fan out across a farm
//
// The flags become an internal/runspec Spec, executed exactly as the simd
// daemon executes it; the scenario list is canonical (sorted), so its
// order never changes the artifact. Every scenario is deterministic for
// a given seed — the farm changes when variants run, never their numbers
// (doc/FARM.md) — so the JSON artifact is regression-gated in CI with
// cmd/benchdiff against ci/chaos-baseline.json (`make chaos-smoke`).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/runspec"
)

func main() {
	spec := runspec.Spec{Tool: "chaosbench"}
	flag.Int64Var(&spec.Seed, "seed", 1, "deterministic scenario seed")
	flag.Float64Var(&spec.WindowMs, "window", 2, "simulated milliseconds per variant")
	flag.IntVar(&spec.Cores, "cores", 2, "victim cores / NIC queues")
	flag.StringVar(&spec.System, "system", "strict", "victim protection strategy (strict|copy|identity+|...)")
	flag.StringVar(&spec.Scenarios, "scenarios", "all", "comma-separated scenario names, or 'all'")
	parallel := flag.Int("parallel", 1, "farm workers for variant parallelism (<=0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.String("json", "", "write a machine-readable artifact (internal/report schema) to this path")
	quiet := flag.Bool("q", false, "suppress the text tables")
	flag.Parse()

	if _, err := runspec.RunTool(spec, *parallel, *jsonOut, *quiet, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
		os.Exit(1)
	}
}
