// The daemon chaos suite: every failure mode the ISSUE names — worker
// panics, corrupted store entries, slow and disconnecting clients,
// overload floods, deadlines, graceful drain — injected against a live
// in-process daemon. The invariants held throughout: the daemon never
// exits, never serves a corrupt or wrong artifact, every rejected
// request carries a typed error kind, and served artifacts stay
// identical to the one-shot tools for the same (seed, config).
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/report"
)

// testDaemon starts an in-process daemon on a short socket path (sun_path
// is ~108 bytes; t.TempDir can exceed it) and tears it down with the
// graceful drain.
func testDaemon(t *testing.T, mut func(*Config)) (*Daemon, *Client) {
	t.Helper()
	dir, err := os.MkdirTemp("", "simd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	cfg := Config{
		Socket:      dir + "/d.sock",
		StoreDir:    dir + "/store",
		Parallel:    2,
		RetryBase:   time.Millisecond,
		Fingerprint: "test",
		Logf:        t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve() }()
	t.Cleanup(func() {
		d.Shutdown()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return d, &Client{Socket: cfg.Socket}
}

// fastSpec is a cheap deterministic run (~tens of ms of host time).
func fastSpec() RunSpec {
	return RunSpec{Tool: "chaosbench", Seed: 1, WindowMs: 2, Scenarios: "faultstorm"}
}

// slowSpec is the same run stretched to a window long enough to overlap
// requests on a 1-CPU host.
func slowSpec(windowMs float64) RunSpec {
	return RunSpec{Tool: "chaosbench", Seed: 1, WindowMs: windowMs, Scenarios: "faultstorm"}
}

// mustRun sends a run request and requires OK.
func mustRun(t *testing.T, c *Client, spec RunSpec, noCache bool) *Response {
	t.Helper()
	resp, err := c.Run(spec, 0, noCache, false)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("run failed: %s: %s", resp.ErrKind, resp.Err)
	}
	return resp
}

// oneShotChaos replicates cmd/chaosbench's serial artifact construction
// for the byte-identity oracle.
func oneShotChaos(t *testing.T, spec RunSpec) []byte {
	t.Helper()
	cfg := chaos.Config{Seed: spec.Seed, WindowMs: spec.WindowMs, Cores: 2, System: "strict"}
	s, err := chaos.Find("faultstorm")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	art := report.New("chaosbench", spec.WindowMs, cfg.Costs)
	art.Add(*tb)
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDaemonServesByteIdenticalToOneShot(t *testing.T) {
	_, c := testDaemon(t, nil)
	want := oneShotChaos(t, fastSpec())
	resp := mustRun(t, c, fastSpec(), false)
	if !bytes.Equal(resp.Artifact, want) {
		t.Fatalf("daemon artifact differs from one-shot tool (%d vs %d bytes)",
			len(resp.Artifact), len(want))
	}
	// Second request: byte-identical again, this time from the store.
	resp2 := mustRun(t, c, fastSpec(), false)
	if !resp2.Cached {
		t.Error("second identical request not served from cache")
	}
	if !bytes.Equal(resp2.Artifact, want) {
		t.Fatal("cached artifact differs from one-shot tool")
	}
}

func TestDaemonNormalizationSharesCacheEntries(t *testing.T) {
	_, c := testDaemon(t, nil)
	mustRun(t, c, fastSpec(), false)
	// Spelled differently, same normalized run → cache hit.
	same := RunSpec{Tool: "chaosbench", Seed: 1, WindowMs: 2,
		Cores: 2, System: "strict", Scenarios: " faultstorm ,faultstorm"}
	if resp := mustRun(t, c, same, false); !resp.Cached {
		t.Error("equivalent spelling missed the cache")
	}
}

func TestDaemonWorkerPanicIsRetriedThenServed(t *testing.T) {
	d, c := testDaemon(t, func(cfg *Config) { cfg.Inject.PanicEvery = 2 })
	want := oneShotChaos(t, fastSpec())
	resp := mustRun(t, c, fastSpec(), false) // attempt 1 panics, retry succeeds
	if !bytes.Equal(resp.Artifact, want) {
		t.Fatal("artifact served after panic-retry differs from one-shot tool")
	}
	if d.panicsRecovered.Load() == 0 || d.retries.Load() == 0 {
		t.Errorf("panicsRecovered=%d retries=%d, want both > 0",
			d.panicsRecovered.Load(), d.retries.Load())
	}
}

func TestDaemonPanicExhaustionIsTypedNotFatal(t *testing.T) {
	_, c := testDaemon(t, func(cfg *Config) { cfg.Inject.PanicEvery = 1 })
	resp, err := c.Run(fastSpec(), 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.ErrKind != ErrKindInternal {
		t.Fatalf("resp = %+v, want internal error after retry exhaustion", resp)
	}
	// The daemon must still be alive and serving.
	if err := c.Ping(); err != nil {
		t.Fatalf("daemon dead after panic exhaustion: %v", err)
	}
}

func TestDaemonCorruptEntryQuarantinedAndRecomputed(t *testing.T) {
	d, c := testDaemon(t, nil)
	first := mustRun(t, c, fastSpec(), false)
	if err := d.Store().CorruptEntry(first.Key); err != nil {
		t.Fatal(err)
	}
	resp := mustRun(t, c, fastSpec(), false)
	if resp.Cached {
		t.Error("corrupt entry served from cache")
	}
	if !bytes.Equal(resp.Artifact, first.Artifact) {
		t.Fatal("recomputed artifact differs — corrupt bytes leaked through")
	}
	if d.corruptRecomputed.Load() != 1 {
		t.Errorf("corruptRecomputed = %d, want 1", d.corruptRecomputed.Load())
	}
	if n := d.Store().QuarantinedCount(); n != 1 {
		t.Errorf("quarantined entries = %d, want 1", n)
	}
	// The key is healed: next request hits the recomputed entry.
	if resp := mustRun(t, c, fastSpec(), false); !resp.Cached {
		t.Error("healed key missed the cache")
	}
}

func TestDaemonStoreReadFailureRetriedToCacheHit(t *testing.T) {
	d, c := testDaemon(t, func(cfg *Config) { cfg.Inject.StoreFailReadEvery = 2 })
	mustRun(t, c, fastSpec(), false) // get#1 miss, computed, stored
	resp := mustRun(t, c, fastSpec(), false)
	if !resp.Cached {
		t.Error("read-failure retry did not reach the cache hit")
	}
	if d.retries.Load() == 0 {
		t.Error("no retry recorded for the injected store read failure")
	}
}

func TestDaemonOverloadFloodShedsWithTypedErrors(t *testing.T) {
	d, c := testDaemon(t, func(cfg *Config) {
		cfg.MaxInflight = 1
		cfg.QueueBound = 1
		cfg.PreviewWindowMs = 0.5
	})
	const flood = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, degraded, overload int
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Run(slowSpec(20), 0, true, false)
			if err != nil {
				t.Errorf("transport error under flood: %v", err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case resp.OK && resp.Degraded:
				degraded++
			case resp.OK:
				ok++
			case resp.ErrKind == ErrKindOverload:
				overload++
			default:
				t.Errorf("untyped rejection under flood: %q %q", resp.ErrKind, resp.Err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 || overload == 0 {
		t.Errorf("flood outcomes ok=%d degraded=%d overload=%d; want served and shed both > 0",
			ok, degraded, overload)
	}
	if ok+degraded+overload != flood {
		t.Errorf("outcomes don't add up: %d+%d+%d != %d", ok, degraded, overload, flood)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("daemon dead after flood: %v", err)
	}
	if got := int(d.overloads.Load()); got != overload {
		t.Errorf("daemon.overloads = %d, clients saw %d", got, overload)
	}
}

func TestDaemonDegradedPreviewUnderOverload(t *testing.T) {
	d, c := testDaemon(t, func(cfg *Config) {
		cfg.MaxInflight = 1
		cfg.QueueBound = 1
		cfg.PreviewWindowMs = 0.5
	})
	// Saturate the single execution slot and the single admission seat
	// with slow runs, then probe: the ladder must serve a preview.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Run(slowSpec(50), 0, true, true)
		}()
	}
	// Wait until the daemon itself reports slot + seat both occupied —
	// a fixed sleep races request arrival on a loaded host.
	deadline := time.Now().Add(10 * time.Second)
	for !(len(d.sem) == 1 && d.waiters.Load() >= 1) {
		if time.Now().After(deadline) {
			t.Fatal("flood never saturated the daemon")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// NoCache keeps the probe on the admission path (a cache hit would
	// bypass the ladder); past the queue bound it must shed to a preview.
	resp, err := c.Run(slowSpec(50), 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !resp.OK || !resp.Degraded {
		t.Errorf("probe past the queue bound = %+v, want degraded preview", resp)
	}
}

func TestDaemonClientDisconnectCancelsRun(t *testing.T) {
	d, c := testDaemon(t, nil)
	conn, err := net.Dial("unix", c.Socket)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Op: "run", Spec: slowSpec(100), NoCache: true}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the run start
	conn.Close()                      // client dies mid-run

	deadline := time.Now().Add(15 * time.Second)
	for d.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never cancelled the run")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Daemon healthy, farm drained of the abandoned request's points.
	if err := c.Ping(); err != nil {
		t.Fatalf("daemon dead after disconnect: %v", err)
	}
	for d.farm.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned points still queued: %d", d.farm.QueueDepth())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDaemonDeadlineIsTyped(t *testing.T) {
	_, c := testDaemon(t, nil)
	resp, err := c.Run(slowSpec(100), time.Millisecond, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.ErrKind != ErrKindDeadline {
		t.Fatalf("resp = %+v, want typed deadline error", resp)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("daemon dead after deadline: %v", err)
	}
}

func TestDaemonSlowClientIsBounded(t *testing.T) {
	_, c := testDaemon(t, func(cfg *Config) { cfg.IOTimeout = 100 * time.Millisecond })
	conn, err := net.Dial("unix", c.Socket)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the daemon's read bound must close us out instead of
	// pinning a handler goroutine forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	if _, err := conn.Read(buf); err == nil {
		// A bad_request response is also acceptable; either way the
		// connection terminates promptly.
		conn.Read(buf)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("daemon wedged by slow client: %v", err)
	}
}

func TestDaemonBadRequestsAreTyped(t *testing.T) {
	_, c := testDaemon(t, nil)
	for name, spec := range map[string]RunSpec{
		"unknown-tool":       {Tool: "frobnicate"},
		"unknown-experiment": {Tool: "reproduce", Experiments: "fig99"},
		"unknown-scenario":   {Tool: "chaosbench", Scenarios: "nope"},
	} {
		resp, err := c.Run(spec, 0, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.ErrKind != ErrKindBadRequest {
			t.Errorf("%s: resp = %+v, want bad_request", name, resp)
		}
	}
	// Protocol garbage gets a typed response too.
	conn, err := net.Dial("unix", c.Socket)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, "this is not json")
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no response to garbage: %v", err)
	}
	if resp.OK || resp.ErrKind != ErrKindBadRequest {
		t.Errorf("garbage: resp = %+v, want bad_request", resp)
	}
}

func TestDaemonGracefulDrainCompletesInflight(t *testing.T) {
	dir, err := os.MkdirTemp("", "simd")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := New(Config{
		Socket: dir + "/d.sock", StoreDir: dir + "/store",
		Parallel: 2, RetryBase: time.Millisecond, Fingerprint: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve() }()
	c := &Client{Socket: dir + "/d.sock"}
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	respc := make(chan *Response, 1)
	go func() {
		resp, err := c.Run(slowSpec(100), 0, true, true)
		if err != nil {
			t.Errorf("in-flight request failed during drain: %v", err)
			respc <- nil
			return
		}
		respc <- resp
	}()
	time.Sleep(100 * time.Millisecond) // the run is in flight
	d.Shutdown()                       // SIGTERM path

	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	resp := <-respc
	if resp == nil || !resp.OK {
		t.Fatalf("in-flight request not completed by drain: %+v", resp)
	}
	// After the drain the socket is gone: new clients are refused.
	if err := c.Ping(); err == nil {
		t.Error("daemon still serving after Shutdown")
	}
}

func TestDaemonHealthSurface(t *testing.T) {
	_, c := testDaemon(t, nil)
	mustRun(t, c, fastSpec(), false)
	mustRun(t, c, fastSpec(), false)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.PID != os.Getpid() {
		t.Errorf("health PID = %d, want %d", h.PID, os.Getpid())
	}
	m := h.Metrics.Counters
	if m["daemon.runs"] != 1 || m["daemon.cache_hits"] != 1 {
		t.Errorf("daemon.runs=%d daemon.cache_hits=%d, want 1/1",
			m["daemon.runs"], m["daemon.cache_hits"])
	}
	if m["farm.executed"] == 0 {
		t.Error("farm.* metrics missing from health surface")
	}
	if h.Store.Puts != 1 || h.Store.Hits != 1 {
		t.Errorf("store stats = %+v, want 1 put 1 hit", h.Store)
	}
}
