// Command tenantbench benchmarks the multi-tenant kernel-bypass
// datapath (internal/tenant): three protection schemes — the
// unprotected shared-queue baseline, CAPIO-style capability-checked
// descriptors, and per-tenant shadow-copy rings — against a hostile
// tenant mounted from the attack-program library, producing both the
// isolation matrix (which schemes contain arbitrary-scan / ring-overrun
// / stale-replay) and the isolation-vs-throughput sweep across tenant
// counts up to 1024 queues.
//
// Usage:
//
//	tenantbench [-seed 1] [-schemes capability,shadow-copy] [-attacks stale-replay]
//	tenantbench -tenants 16,256,1024 -frames 1500,256,128
//	tenantbench -parallel 4 -json tenants.json
//
// The flags become an internal/runspec Spec, executed exactly as the simd
// daemon executes it. Every cell is an independent deterministic
// simulation, so the JSON artifact is byte-identical at any -parallel
// setting and is regression-gated in CI with cmd/benchdiff against
// ci/tenant-baseline.json (`make tenant-smoke`): any isolation-cell flip
// or goodput drift fails the build.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/runspec"
)

func main() {
	spec := runspec.Spec{Tool: "tenantbench"}
	flag.Int64Var(&spec.Seed, "seed", 1, "deterministic sweep seed")
	flag.StringVar(&spec.Schemes, "schemes", "all", "comma-separated protection schemes, or 'all'")
	flag.StringVar(&spec.Attacks, "attacks", "all", "comma-separated hostile programs for the matrix, or 'all'")
	flag.StringVar(&spec.Tenants, "tenants", "", "comma-separated tenant counts for the sweep (default 16,256,1024)")
	flag.StringVar(&spec.Frames, "frames", "", "comma-separated frame sizes for the sweep (default 1500,256,128)")
	parallel := flag.Int("parallel", 1, "farm workers for cell parallelism (<=0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.String("json", "", "write a machine-readable artifact (internal/report schema) to this path")
	quiet := flag.Bool("q", false, "suppress the text tables")
	flag.Parse()

	if _, err := runspec.RunTool(spec, *parallel, *jsonOut, *quiet, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tenantbench: %v\n", err)
		os.Exit(1)
	}
}
