package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/report"
)

// runMain invokes the command as the shell would and fails the test on a
// nonzero exit.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("reproduce %v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// serve starts a daemon on a fresh store and returns its socket.
func serve(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	d, err := daemon.New(daemon.Config{Socket: sock, StoreDir: filepath.Join(dir, "store"),
		Parallel: 2, Fingerprint: "test", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(d.Shutdown)
	if err := (&daemon.Client{Socket: sock}).WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return sock
}

// hostFree re-encodes an artifact without its host-time fields — the
// created_at stamp, per-experiment wall_ms and the farm table — which
// legitimately differ between two runs of the same spec.
func hostFree(t *testing.T, path string) []byte {
	t.Helper()
	a, err := report.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a.CreatedAt = ""
	var exps []report.Experiment
	for _, e := range a.Experiments {
		if e.Name != "farm" {
			e.WallMs = 0
			exps = append(exps, e)
		}
	}
	a.Experiments = exps
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func expNames(a *report.Artifact) string {
	names := make([]string, len(a.Experiments))
	for i, e := range a.Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ",")
}

func TestMainWritesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	text := runMain(t, "-window", "0.5", "-skip-sensitivity",
		"-experiment", "fig3,table1", "-json", out)
	a, err := report.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := expNames(a); got != "table1,fig3,farm" {
		t.Fatalf("experiments = %s, want table1,fig3,farm", got)
	}
	if len(a.Attacks) == 0 {
		t.Error("table1 run recorded no attack verdicts")
	}
	if a.CreatedAt == "" {
		t.Error("artifact missing created_at")
	}
	if !strings.Contains(text, "Figure 3") || !strings.Contains(text, "Table 1") {
		t.Errorf("text report is missing a table:\n%s", text)
	}
}

// TestMainCycleReport: -cyclereport appends the selected sections' cycle
// tables after the sections, and -tracefile records the first selected
// section's workload.
func TestMainCycleReport(t *testing.T) {
	dir := t.TempDir()
	out, trace := filepath.Join(dir, "out.json"), filepath.Join(dir, "trace.json")
	runMain(t, "-window", "0.2", "-experiment", "apimicro,fig3",
		"-cyclereport", "-tracefile", trace, "-json", out)
	a, err := report.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := expNames(a); got != "fig3,apimicro,cycles-micro,farm" {
		t.Fatalf("experiments = %s, want fig3,apimicro,cycles-micro,farm", got)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("trace not written: %v", err)
	}
}

func TestMainViaDaemon(t *testing.T) {
	sock := serve(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "cold.json")
	runMain(t, "-daemon", sock, "-window", "0.5", "-skip-sensitivity",
		"-experiment", "fig3", "-json", out)
	a, err := report.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := expNames(a); got != "fig3,farm" {
		t.Fatalf("daemon artifact experiments = %s, want fig3,farm", got)
	}

	// Second request for the same spec must be served memoized and
	// byte-identical.
	warm := filepath.Join(dir, "warm.json")
	runMain(t, "-daemon", sock, "-window", "0.5", "-skip-sensitivity",
		"-experiment", "fig3", "-json", warm)
	b1, _ := os.ReadFile(out)
	b2, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("memoized daemon artifact differs from the computed one")
	}

	// The one-shot run of the same spec is the daemon's artifact, up to
	// the host-time fields.
	local := filepath.Join(dir, "local.json")
	runMain(t, "-window", "0.5", "-skip-sensitivity", "-experiment", "fig3", "-json", local)
	if !bytes.Equal(hostFree(t, local), hostFree(t, out)) {
		t.Error("one-shot artifact differs from the daemon-served one beyond host-time fields")
	}
}

// TestMainDaemonRejectsLocalFlags: flags that only shape an in-process
// run cannot be honoured by the daemon and must fail loudly.
func TestMainDaemonRejectsLocalFlags(t *testing.T) {
	for _, flag := range [][]string{
		{"-tracefile", "t.json"}, {"-cpuprofile", "c.prof"},
		{"-memprofile", "m.prof"}, {"-parallel", "4"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-daemon", "/nonexistent.sock"}, flag...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), flag[0]) {
			t.Errorf("%v: message does not name %s: %q", args, flag[0], stderr.String())
		}
	}
}

func TestMainRejectsUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig3,nonesuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nonesuch") {
		t.Errorf("message does not name the experiment: %q", stderr.String())
	}
}

func TestArtifactPath(t *testing.T) {
	if p := artifactPath("x.json"); p != "x.json" {
		t.Errorf("artifactPath passthrough = %q", p)
	}
	if p := artifactPath("auto"); filepath.Ext(p) != ".json" || len(p) != len("BENCH_2006-01-02.json") {
		t.Errorf("artifactPath(auto) = %q", p)
	}
}
