package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/report"
)

func art(tool string, window float64, names ...string) *report.Artifact {
	a := report.New(tool, window, nil)
	for _, n := range names {
		a.Add(report.Experiment{Name: n})
	}
	return a
}

func TestSpecFromArtifact(t *testing.T) {
	spec, err := specFromArtifact(art("reproduce", 1, "table1", "fig3", "farm"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Experiments != "table1,fig3" || spec.WindowMs != 1 {
		t.Errorf("reproduce spec = %+v (farm must be dropped)", spec)
	}

	spec, err = specFromArtifact(art("chaosbench", 2, "chaos-faultstorm", "chaos-iovascan"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scenarios != "faultstorm,iovascan" || spec.Seed != 7 {
		t.Errorf("chaos spec = %+v (chaos- prefix must be stripped)", spec)
	}

	if spec, err = specFromArtifact(art("attackbench", 50, "campaign"), 1); err != nil || spec.Payloads != "" {
		t.Errorf("attack spec = %+v, %v (full-matrix tools use daemon defaults)", spec, err)
	}

	if _, err := specFromArtifact(art("scalebench", 1), 0); err == nil {
		t.Error("unmapped tool accepted")
	}
}

func TestDiffAndPrint(t *testing.T) {
	a := art("reproduce", 1, "fig3")
	if !diffAndPrint(a, a, report.DiffOptions{}, true, false) {
		t.Error("identical artifacts failed the gate")
	}
	// A candidate missing a baseline experiment fails the gate; with
	// exit=false that is a reported failure, not a process exit.
	if diffAndPrint(a, art("reproduce", 1), report.DiffOptions{}, false, false) {
		t.Error("missing experiment passed the gate")
	}
}

func TestWatchLoopAgainstDaemon(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	d, err := daemon.New(daemon.Config{
		Socket:      sock,
		StoreDir:    filepath.Join(dir, "store"),
		Parallel:    2,
		Fingerprint: "test",
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(d.Shutdown)
	c := &daemon.Client{Socket: sock}
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Compute the baseline through the daemon, then re-gate it with
	// watchLoop: the same spec is a store hit and must diff clean (a
	// failing round would os.Exit(1) and abort the test binary).
	spec := daemon.RunSpec{Tool: "chaosbench", Seed: 1, WindowMs: 1, Scenarios: "faultstorm"}
	resp, err := c.Run(spec, 0, false, true)
	if err != nil || !resp.OK {
		t.Fatalf("seeding baseline: %v %+v", err, resp)
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, resp.Artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	watchLoop(baseline, sock, 0, 2, 1, report.DiffOptions{Tol: 0.1}, true)
}

// TestDaemonSmokeKeysStable pins the store keys (under fingerprint
// "test") of the specs ci/daemon-smoke.sh sends — the five baseline
// re-gates, the cold/warm reproduce probe and the drain run — so a change
// to the spec's shape or canonical form cannot silently cold-start every
// existing store.
func TestDaemonSmokeKeysStable(t *testing.T) {
	cases := []struct {
		baseline string
		seed     int64
		spec     daemon.RunSpec // used when baseline is empty
		key      string
	}{
		{baseline: "baseline.json", key: "9f70e74c6352aa64e8e2684786d69991016808240c4414fb65b65a61d19faba7"},
		{baseline: "chaos-baseline.json", seed: 1, key: "1349ede0a5ba4f1ebff89b854e359e5167c8160a32cd2811fa4ea80004980174"},
		{baseline: "attack-baseline.json", seed: 1, key: "10812dae91fdecec6cec14009787e330f7f20aee7aca0ca99fe29dec72efb52e"},
		{baseline: "tenant-baseline.json", seed: 1, key: "5f96e7f57cd0706b20e8001c3c4e4ffce54a3bee10da09eca4daed101916468d"},
		{baseline: "scale-baseline.json", key: "0c42308d261a29d21de02980fd392004baa4850a3550f56b9f0a1b576eb89b43"},
		{spec: daemon.RunSpec{Tool: "reproduce", WindowMs: 1, SkipSensitivity: true, Experiments: "all"},
			key: "98299c0c66a4fe6b9724be84ce072f49fde0418f5517f98a32e381376fffe021"},
		{spec: daemon.RunSpec{Tool: "chaosbench", Seed: 7, WindowMs: 4, Scenarios: "all"},
			key: "17e022af491ab732c7a763f9174da879bc884ebaaa2d218eb6f24a87c92fa000"},
	}
	for _, c := range cases {
		spec := c.spec
		if c.baseline != "" {
			base, err := report.Load(filepath.Join("..", "..", "ci", c.baseline))
			if err != nil {
				t.Fatal(err)
			}
			if spec, err = specFromArtifact(base, c.seed); err != nil {
				t.Fatal(err)
			}
		}
		n, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if key, err := n.Key("test"); err != nil || key != c.key {
			t.Errorf("%s %+v: key %s (%v), want %s", c.baseline, spec, key, err, c.key)
		}
	}
}
