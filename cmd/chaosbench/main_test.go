package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/runspec"
)

func spec(scenarios string) runspec.Spec {
	return runspec.Spec{Tool: "chaosbench", Seed: 1, WindowMs: 0.5, Cores: 2, System: "strict", Scenarios: scenarios}
}

// oneShot runs the tool for spec and returns its -json artifact bytes.
func oneShot(t *testing.T, s runspec.Spec) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "chaos.json")
	var stdout, stderr bytes.Buffer
	if _, err := runspec.RunTool(s, 1, out, false, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() == 0 {
		t.Error("no text tables printed")
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScenarioOrderIsCanonical: a reordered -scenarios list is the same
// run — byte-identical artifacts and one store key.
func TestScenarioOrderIsCanonical(t *testing.T) {
	a, b := spec("queuestall,faultstorm"), spec("faultstorm, queuestall")
	if !bytes.Equal(oneShot(t, a), oneShot(t, b)) {
		t.Error("reordered -scenarios produced a different artifact")
	}
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ka, _ := na.Key("test")
	kb, _ := nb.Key("test")
	if ka != kb {
		t.Errorf("reordered -scenarios keys differ: %s vs %s", ka, kb)
	}
}

// TestOneShotMatchesDaemon: the one-shot -json artifact and the
// daemon-served artifact of the same spec are byte-identical.
func TestOneShotMatchesDaemon(t *testing.T) {
	dir := t.TempDir()
	d, err := daemon.New(daemon.Config{Socket: filepath.Join(dir, "d.sock"),
		StoreDir: filepath.Join(dir, "store"), Parallel: 2, Fingerprint: "test", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(d.Shutdown)
	c := &daemon.Client{Socket: filepath.Join(dir, "d.sock")}
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	s := spec("poolsqueeze")
	resp, err := c.Run(s, 0, false, true)
	if err != nil || !resp.OK {
		t.Fatalf("daemon run: %v %+v", err, resp)
	}
	if !bytes.Equal(oneShot(t, s), resp.Artifact) {
		t.Error("one-shot artifact differs from the daemon-served one")
	}
}
