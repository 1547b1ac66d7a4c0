package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/report"
)

// Set-up fills the daemon's store with the warm set. The measured stream
// then repeats rounds of roundLen requests in a seeded order. A round
// holds the request kinds one run of ci/daemon-smoke.sh sends the daemon,
// in the same proportion: five first-seen specs (its five `benchdiff
// -watch -count 1` gates, each a compute and a store write), two NoCache
// recomputes (`simctl run -no-cache`; here of a warm spec whose artifact
// is byte-deterministic, so it overwrites an entry while other clients
// read it) and two warm repeats (its two `reproduce -daemon` re-reads,
// store reads). The specs themselves are the reduced ones of warmSet and
// firstSeen, not daemon-smoke's full suite runs.
const (
	roundWarm      = 2
	roundRecompute = 2
	roundFirst     = 5
	roundLen       = roundWarm + roundRecompute + roundFirst
)

// mixReq is one request of the daemon-mixed stream.
type mixReq struct {
	kind    string // "fill", "warm", "recompute" or "first"
	spec    daemon.RunSpec
	noCache bool
}

// reducedTenant is the tenantbench spec of the mix: the full isolation
// matrix, swept at one tenant count and one frame size.
func reducedTenant(seed int64) daemon.RunSpec {
	return daemon.RunSpec{Tool: "tenantbench", Seed: seed, Tenants: "16", Frames: "1500"}
}

// warmSet is the specs set-up computes and the rounds read back. The
// first three have byte-deterministic artifacts, so they are the ones
// recomputed; the chaosbench and attackbench specs at seed 1 are the ones
// ci/chaos-baseline.json and ci/attack-baseline.json hold, and the two
// reproduce sections are held to ci/baseline.json. It does not depend on
// the seed, so neither does set-up.
var warmSet = []daemon.RunSpec{
	{Tool: "chaosbench", Seed: 1},
	{Tool: "attackbench", Seed: 1},
	reducedTenant(1),
	{Tool: "reproduce", WindowMs: suiteWindowMs, SkipSensitivity: true, Experiments: "fig1"},
	{Tool: "reproduce", WindowMs: suiteWindowMs, SkipSensitivity: true, Experiments: "fig5a"},
}

// recomputable is how many leading warm-set specs have byte-deterministic
// artifacts (reproduce artifacts carry a creation stamp and farm stats).
const recomputable = 3

// mixGen generates the daemon-mixed request stream for one seed.
type mixGen struct {
	rng   *rand.Rand
	round []mixReq
	fresh int64 // seed of the next first-seen spec
}

func newMixGen(seed int64) *mixGen {
	// First-seen seeds never repeat within a run and never hit seed 1.
	return &mixGen{rng: rand.New(rand.NewSource(seed)), fresh: 2 + (seed&0xffffff)*1_000_000}
}

// next returns the next request of the measured stream.
func (g *mixGen) next() mixReq {
	if len(g.round) == 0 {
		for i := 0; i < roundWarm; i++ {
			g.round = append(g.round, mixReq{kind: "warm", spec: warmSet[g.rng.Intn(len(warmSet))]})
		}
		for i := 0; i < roundRecompute; i++ {
			g.round = append(g.round, mixReq{kind: "recompute", spec: warmSet[g.rng.Intn(recomputable)], noCache: true})
		}
		for i := 0; i < roundFirst; i++ {
			g.round = append(g.round, mixReq{kind: "first", spec: g.firstSeen()})
		}
		g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
	}
	q := g.round[0]
	g.round = g.round[1:]
	return q
}

func (g *mixGen) firstSeen() daemon.RunSpec {
	s := g.fresh
	g.fresh++
	switch s % 3 {
	case 0:
		return daemon.RunSpec{Tool: "chaosbench", Seed: s}
	case 1:
		return daemon.RunSpec{Tool: "attackbench", Seed: s}
	}
	return reducedTenant(s)
}

// mixDaemon is an in-process simd daemon on a private store, and the
// client the closed-loop goroutines share.
type mixDaemon struct {
	d      *daemon.Daemon
	client *daemon.Client
	served chan error
}

// startDaemon opens a store under dir, starts a daemon with one farm
// worker per CPU and waits for its ready ping.
func startDaemon(dir string, workers int) (*mixDaemon, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	sock := filepath.Join(dir, "d.sock")
	// Unix socket paths are short; a relative one keeps deep checkouts working.
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, sock); err == nil && len(rel) < len(sock) {
			sock = rel
		}
	}
	d, err := daemon.New(daemon.Config{
		Socket:     sock,
		StoreDir:   filepath.Join(dir, "store"),
		Parallel:   workers,
		QueueBound: max(8, workers), // clients never outnumber the queue: no shedding
	})
	if err != nil {
		return nil, nil, err
	}
	md := &mixDaemon{d: d, client: &daemon.Client{Socket: sock}, served: make(chan error, 1)}
	go func() { md.served <- d.Serve() }()
	closeFn := func() {
		d.Shutdown()
		<-md.served
		os.RemoveAll(dir)
	}
	if err := md.client.Ping(); err != nil {
		closeFn()
		return nil, nil, err
	}
	return md, closeFn, nil
}

// mixRecord is one completed request.
type mixRecord struct {
	req  mixReq
	ms   float64
	resp *daemon.Response
	err  error
}

// drive runs a closed loop of `clients` goroutines: each takes the next
// request from next, sends it, and takes another only once the reply is
// in, until next reports the stream is over. It returns the completed
// requests in completion order. Replies are checked afterwards (mixCheck),
// so the checking neither holds up the clients nor lands in the timing.
func (md *mixDaemon) drive(clients int, next func() (mixReq, bool)) []mixRecord {
	var mu sync.Mutex // guards next and recs
	var recs []mixRecord
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				q, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				start := time.Now()
				resp, err := md.client.Run(q.spec, 0, q.noCache, false)
				rec := mixRecord{req: q, ms: msSince(start), resp: resp, err: err}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// mixEnv is a running daemon whose store holds the warm set, the request
// stream to send it, and the set-up requests that computed the warm set.
type mixEnv struct {
	md   *mixDaemon
	gen  *mixGen
	fill []mixRecord
}

// setupMix starts a daemon under dir and has `nproc` clients compute the
// warm set through it. The caller checks the replies in env.fill.
func setupMix(r *run, dir string) (*mixEnv, func(), error) {
	md, closeFn, err := startDaemon(dir, r.workers)
	if err != nil {
		return nil, nil, err
	}
	fill := warmSet
	recs := md.drive(r.workers, func() (mixReq, bool) {
		if len(fill) == 0 {
			return mixReq{}, false
		}
		q := mixReq{kind: "fill", spec: fill[0]}
		fill = fill[1:]
		return q, true
	})
	return &mixEnv{md: md, gen: newMixGen(r.seed), fill: recs}, closeFn, nil
}

// mixBaselines are the committed artifacts the mix's replies are held to.
type mixBaselines struct {
	suite, chaos, attack *report.Artifact
}

func loadMixBaselines(root string) (mixBaselines, error) {
	var b mixBaselines
	for _, l := range []struct {
		dst  **report.Artifact
		file string
	}{{&b.suite, "baseline.json"}, {&b.chaos, "chaos-baseline.json"}, {&b.attack, "attack-baseline.json"}} {
		a, err := report.Load(filepath.Join(root, "ci", l.file))
		if err != nil {
			return b, err
		}
		*l.dst = a
	}
	return b, nil
}

// baselineFor returns the committed artifact a spec's reply must diff
// clean against, or nil when none covers the spec.
func (b mixBaselines) baselineFor(spec daemon.RunSpec) *report.Artifact {
	n, err := spec.Normalize()
	if err != nil {
		return nil
	}
	switch {
	case n == daemon.RunSpec{Tool: "chaosbench", Seed: 1, WindowMs: 2, Cores: 2, System: "strict", Scenarios: "all"}:
		return b.chaos
	case n == daemon.RunSpec{Tool: "attackbench", Seed: 1, Payloads: "all", Systems: "all"}:
		return b.attack
	case n.Tool == "reproduce" && n.WindowMs == b.suite.WindowMs && n.Experiments != "all":
		// The baseline restricted to the requested sections.
		want := map[string]bool{}
		for _, s := range strings.Split(n.Experiments, ",") {
			want[s] = true
		}
		sub := *b.suite
		sub.Experiments = nil
		for _, e := range b.suite.Experiments {
			if want[e.Name] {
				sub.Experiments = append(sub.Experiments, e)
			}
		}
		if !want["table1"] {
			sub.Attacks = nil
		}
		return &sub
	}
	return nil
}

// mixLatency is a stream's round trips, split into warm repeats (served
// from the store) and the requests that compute (cold).
type mixLatency struct {
	warmMs, coldMs []float64
	coldByTool     map[string][]float64
}

func newMixLatency() *mixLatency { return &mixLatency{coldByTool: map[string][]float64{}} }

// mixCheck verifies a stream's replies, in completion order, and keeps
// their latencies. One check serves set-up and the stream after it, so a
// warm repeat is held to the reply that filled its key.
type mixCheck struct {
	r     *run
	bases mixBaselines
	first map[string][sha256.Size]byte // store key → first computed reply
}

func newMixCheck(r *run, bases mixBaselines) *mixCheck {
	return &mixCheck{r: r, bases: bases, first: map[string][sha256.Size]byte{}}
}

// check counts one operation per request and returns the requests'
// latencies. A failed request counts as missing every latency percentile:
// its latency is +Inf, filed as warm or cold by what it should have been.
func (c *mixCheck) check(recs []mixRecord) *mixLatency {
	lat := newMixLatency()
	for _, rec := range recs {
		why := c.verify(rec)
		if !c.r.check(why == "", "daemon-mixed %s %+v: %s", rec.req.kind, rec.req.spec, why) {
			rec.ms = math.Inf(1)
		}
		if rec.req.kind == "warm" {
			lat.warmMs = append(lat.warmMs, rec.ms)
		} else {
			lat.coldMs = append(lat.coldMs, rec.ms)
			lat.coldByTool[rec.req.spec.Tool] = append(lat.coldByTool[rec.req.spec.Tool], rec.ms)
		}
	}
	return lat
}

// verify returns why a request failed, or "" when it passed. A request
// fails when it errs, is refused, is served degraded, is a warm repeat
// the store did not serve (or a computing request it did), differs by a
// byte from the first computed reply for its key, or — for the specs the
// committed baselines cover — drifts from its baseline.
func (c *mixCheck) verify(rec mixRecord) string {
	q, resp := rec.req, rec.resp
	switch {
	case rec.err != nil:
		return rec.err.Error()
	case !resp.OK:
		return fmt.Sprintf("refused (%s): %s", resp.ErrKind, resp.Err)
	case resp.Degraded:
		return "served a degraded preview"
	case (q.kind == "warm") != resp.Cached:
		return fmt.Sprintf("cached=%v", resp.Cached)
	}
	sum := sha256.Sum256(resp.Artifact)
	if ref, seen := c.first[resp.Key]; seen {
		if sum != ref {
			return "reply differs from the first computed reply for its key"
		}
		return ""
	}
	c.first[resp.Key] = sum
	a, err := report.Decode(bytes.NewReader(resp.Artifact))
	if err != nil {
		return fmt.Sprintf("artifact: %v", err)
	}
	if base := c.bases.baselineFor(q.spec); base != nil {
		rep, err := report.Diff(base, a, smokeDiff)
		if err != nil {
			return fmt.Sprintf("diff: %v", err)
		}
		if !rep.OK() {
			return "drifted from its ci/ baseline:\n" + rep.String()
		}
	}
	return ""
}

// runDaemonMix measures the daemon-mixed workload: one client goroutine
// per CPU drives the stream until the run's time is up.
func runDaemonMix(r *run) error {
	bases, err := loadMixBaselines(r.root)
	if err != nil {
		return err
	}
	n := 0
	env, closeFn, setup, err := timeSetup(func() (*mixEnv, func(), error) {
		n++
		return setupMix(r, filepath.Join(r.work, fmt.Sprintf("mix%d", n)))
	})
	if err != nil {
		return err
	}
	defer closeFn()
	r.set("setup_s", "s", setup)
	chk := newMixCheck(r, bases)
	chk.check(env.fill)

	runtime.GC()
	m0 := heapCounters()
	start := time.Now()
	deadline := start.Add(r.seconds)
	recs := env.md.drive(r.workers, func() (mixReq, bool) {
		return env.gen.next(), time.Now().Before(deadline)
	})
	secs := time.Since(start).Seconds()
	mem := heapCounters().since(m0)

	// A "pass" of this workload is one round of the mix, and its timed
	// operations are the requests that compute. Warm repeats wait for a
	// CPU behind those computes, and their latency did not hold still
	// from run to run (NOTES.md); the traced run reports it.
	lat := chk.check(recs)
	rounds := float64(len(recs)) / roundLen
	perRound := memDelta{bytes: uint64(float64(mem.bytes) / rounds), allocs: uint64(float64(mem.allocs) / rounds)}
	return r.setCommon([]float64{secs / rounds}, []memDelta{perRound}, lat.coldMs)
}
