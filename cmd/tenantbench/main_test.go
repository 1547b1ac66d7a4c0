package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/runspec"
)

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

	s := runspec.Spec{Tool: "tenantbench", Seed: 1, Tenants: "2", Frames: "1500"}
	out := filepath.Join(dir, "oneshot.json")
	var stdout, stderr bytes.Buffer
	if _, err := runspec.RunTool(s, 1, out, false, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "shadow-copy") {
		t.Errorf("text tables missing the shadow-copy scheme:\n%s", stdout.String())
	}
	oneShot, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Run(s, 0, false, true)
	if err != nil || !resp.OK {
		t.Fatalf("daemon run: %v %+v", err, resp)
	}
	if !bytes.Equal(oneShot, resp.Artifact) {
		t.Error("one-shot artifact differs from the daemon-served one")
	}
}

func TestRunRejectsBadCounts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	s := runspec.Spec{Tool: "tenantbench", Tenants: "two"}
	if _, err := runspec.RunTool(s, 1, "", true, &stdout, &stderr); err == nil {
		t.Error("malformed tenant counts accepted")
	}
}
