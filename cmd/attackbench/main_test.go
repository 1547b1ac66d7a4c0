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

func spec(payloads, systems string) runspec.Spec {
	return runspec.Spec{Tool: "attackbench", Seed: 1, Payloads: payloads, Systems: systems}
}

func TestRunSubsetWritesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "attacks.json")
	var stdout, stderr bytes.Buffer
	if err := run(spec("replay-window,stale-read", "strict,defer,copy"), 1, out, false, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"replay-window", "stale-read", "BREACH", "breached by"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	for _, want := range []string{`"tool": "attackbench"`, `"campaign"`, `"success"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact missing %q", want)
		}
	}
}

func TestRunQuietSuppressesMatrix(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(spec("stale-read", "copy"), 1, "", true, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-q still wrote to stdout:\n%s", stdout.String())
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(spec("no-such-payload", "all"), 1, "", true, &stdout, &stderr); err == nil {
		t.Error("unknown payload accepted")
	}
	if err := run(spec("all", "no-such-system"), 1, "", true, &stdout, &stderr); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestSystemOrderIsCanonical: -systems strict,copy and copy,strict are
// the same run — byte-identical artifacts and one store key.
func TestSystemOrderIsCanonical(t *testing.T) {
	dir := t.TempDir()
	var arts [][]byte
	var keys []string
	for i, systems := range []string{"strict,copy", "copy,strict"} {
		out := filepath.Join(dir, systems+".json")
		var stdout, stderr bytes.Buffer
		if err := run(spec("stale-read", systems), 1, out, true, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", systems, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		n, err := spec("stale-read", systems).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		k, err := n.Key("test")
		if err != nil {
			t.Fatal(err)
		}
		arts, keys = append(arts, b), append(keys, k)
		if i > 0 && !bytes.Equal(arts[0], b) {
			t.Errorf("-systems %s artifact differs from -systems strict,copy", systems)
		}
		if i > 0 && keys[0] != k {
			t.Errorf("-systems %s key %s != %s", systems, k, keys[0])
		}
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

	s := spec("subpage-harvest,stale-read", "strict,copy")
	out := filepath.Join(dir, "oneshot.json")
	var stdout, stderr bytes.Buffer
	if err := run(s, 1, out, true, &stdout, &stderr); err != nil {
		t.Fatal(err)
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
		t.Errorf("one-shot artifact differs from the daemon-served one:\n%s\nvs\n%s", oneShot, resp.Artifact)
	}
}
