// Command attackbench runs the attack-campaign engine: every payload in
// internal/campaign's library — sub-page harvest, post-unmap replay,
// blind window discovery, descriptor-ring overrun, fault storm, hot-plug
// surprise removal, ATS-style spoof, allocator-reuse race, stale-data
// read, arbitrary scan — against every protection backend, and prints
// the resulting success matrix (the paper's Table 1 generalized to
// ~10 x 8).
//
// Usage:
//
//	attackbench [-seed 1] [-payloads replay-window,fault-storm] [-systems strict,copy]
//	attackbench -json attacks.json     # machine-readable artifact
//	attackbench -parallel 4            # cells fan out across a farm
//
// The flags become an internal/runspec Spec, executed exactly as the simd
// daemon executes it; payload and system lists are canonical (sorted), so
// their order never changes the artifact. Every cell is an independent
// deterministic simulation, so the JSON artifact is byte-identical at any
// -parallel setting and is regression-gated in CI with cmd/benchdiff
// against ci/attack-baseline.json (`make attack-smoke`): any cell flip —
// a defense newly broken or newly effective — fails the build.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/runspec"
)

// run executes the campaign and, unless quiet, follows the matrix with
// each backend's breach count.
func run(spec runspec.Spec, parallel int, jsonOut string, quiet bool, stdout, stderr io.Writer) error {
	a, err := runspec.RunTool(spec, parallel, jsonOut, quiet, stdout, stderr)
	if err != nil || quiet {
		return err
	}
	m := a.Experiments[0] // the success matrix: payload rows x system columns
	for i, sys := range m.Columns[1:] {
		breaches := 0
		for _, row := range m.Rows {
			if row[i+1] == "BREACH" {
				breaches++
			}
		}
		fmt.Fprintf(stdout, "%-10s breached by %d/%d payloads\n", sys, breaches, len(m.Rows))
	}
	return nil
}

func main() {
	spec := runspec.Spec{Tool: "attackbench"}
	flag.Int64Var(&spec.Seed, "seed", 1, "deterministic campaign seed")
	flag.StringVar(&spec.Payloads, "payloads", "all", "comma-separated payload names, or 'all'")
	flag.StringVar(&spec.Systems, "systems", "all", "comma-separated protection backends, or 'all'")
	parallel := flag.Int("parallel", 1, "farm workers for cell parallelism (<=0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.String("json", "", "write a machine-readable artifact (internal/report schema) to this path")
	quiet := flag.Bool("q", false, "suppress the text matrix")
	flag.Parse()

	if err := run(spec, *parallel, *jsonOut, *quiet, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "attackbench: %v\n", err)
		os.Exit(1)
	}
}
