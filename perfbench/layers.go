package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/store"
)

// A traced run (--trace 1) repeats one layer block until its time is up.
// The block covers every layer the three workloads use, so every workload
// reports every per-layer metric: a traced and an untraced manycore-rx
// pass, alternated; one paper-suite pass; a daemon session of a fixed
// request count; and the isolated layer probes. NOTES.md maps each metric
// to the end-to-end metric and workload it should move.

// rxLayerPasses is how many traced and untraced manycore-rx passes a
// block alternates.
const rxLayerPasses = 3

// layerRounds is the length of a block's daemon session after set-up.
const layerRounds = 10

// block is one layer block's metrics. exact holds the counts that must
// repeat exactly from block to block.
type block struct {
	metrics map[string]metric
	exact   map[string]bool
}

func (b *block) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// count records a count that must repeat exactly, in the given unit.
func (b *block) count(name, unit string, v float64) {
	b.set(name, unit, v)
	b.exact[name] = true
}

func runLayers(r *run, spanPath string) error {
	deadline := time.Now().Add(r.seconds)
	var blocks []*block
	for len(blocks) == 0 || time.Now().Before(deadline) {
		b := &block{metrics: map[string]metric{}, exact: map[string]bool{}}
		path := ""
		if len(blocks) == 0 {
			path = spanPath
		}
		if err := r.layerBlock(b, path); err != nil {
			return err
		}
		blocks = append(blocks, b)
	}
	for name, m := range blocks[0].metrics {
		var vals []float64
		for i, b := range blocks {
			v := b.metrics[name].Value
			if blocks[0].exact[name] {
				r.check(v == m.Value, "count %s = %v in layer block %d, %v in block 0", name, v, i, m.Value)
			}
			vals = append(vals, v)
		}
		r.set(name, m.Unit, median(vals))
	}
	return nil
}

func (r *run) layerBlock(b *block, spanPath string) error {
	if err := r.rxLayers(b, spanPath); err != nil {
		return err
	}
	if err := r.suiteLayers(b); err != nil {
		return err
	}
	if err := r.daemonLayers(b); err != nil {
		return err
	}
	return probeLayers(b.set)
}

// rxLayers alternates untraced and traced manycore-rx passes. Each traced
// point must produce exactly the untraced point's result.
func (r *run) rxLayers(b *block, spanPath string) error {
	env, closeFn, err := setupRx(r.root, r.workers)
	if err != nil {
		return err
	}
	defer closeFn()
	n := len(env.points)
	var plainSecs, tracedSecs []float64
	var plainMem []memDelta
	pointMs := make([][]float64, n)
	var plain []bench.Result
	type tally struct{ selfNs, calls, runNs float64 }
	var sums []map[string]*tally // per traced pass, keyed by span name + backend
	var counts []engineCounts
	for pass := 0; pass < rxLayerPasses; pass++ {
		var res []bench.Result
		var ms []float64
		secs, mem, err := timedPass(func() (err error) {
			res, ms, err = env.rxPass(untracedPoint)
			return err
		})
		plainSecs = append(plainSecs, secs)
		plainMem = append(plainMem, mem)
		if err != nil {
			return fmt.Errorf("manycore-rx pass: %w", err)
		}
		r.checkRx(env, res)
		plain = res
		for i := range ms {
			pointMs[i] = append(pointMs[i], ms[i])
		}

		logs := make([]*spanLog, n)
		counts = make([]engineCounts, n)
		epoch := time.Now()
		var traced []bench.Result
		secs, _, err = timedPass(func() (err error) {
			traced, _, err = env.rxPass(func(i int, cfg bench.Config) (bench.Result, error) {
				logs[i] = &spanLog{point: i, epoch: epoch}
				res, c, err := tracedRxRun(cfg, logs[i])
				counts[i] = c
				return res, err
			})
			return err
		})
		tracedSecs = append(tracedSecs, secs)
		if err != nil {
			return fmt.Errorf("traced manycore-rx pass: %w", err)
		}
		sum := map[string]*tally{}
		var traces []pointTrace
		for i, p := range env.points {
			r.check(reflect.DeepEqual(traced[i], res[i]), "traced %s differs from untraced: %+v vs %+v",
				p.name(), traced[i], res[i])
			pt := newPointTrace(logs[i].spans)
			traces = append(traces, pt)
			for k, s := range pt.spans {
				key := s.name + "." + slug(p.sys)
				if sum[key] == nil {
					sum[key] = &tally{}
				}
				sum[key].selfNs += float64(pt.self[k])
				sum[key].calls++
				if s.name == "sim.run" {
					sum[key].runNs += float64(s.end - s.start)
				}
			}
		}
		sums = append(sums, sum)
		if pass == 0 && spanPath != "" {
			if err := writeSpans(spanPath, traces); err != nil {
				return err
			}
		}
	}

	// Simulated counts, from the last untraced pass.
	var maps, copied, poolBytes, grows, invals, faults, frames, drops float64
	var hitRate, dispatches, fastYields float64
	for i, res := range plain {
		st := res.MapperStats
		maps += float64(st.Maps)
		copied += float64(st.BytesCopied)
		poolBytes += float64(res.PoolBytes)
		grows += float64(st.ShadowGrows)
		invals += float64(res.Invalidations)
		faults += float64(res.Faults)
		frames += float64(res.Ops)
		drops += float64(res.RxDrops)
		hitRate += res.IOTLBHitRate / float64(n)
		dispatches += float64(counts[i].dispatches)
		fastYields += float64(counts[i].fastYields)
		b.set("bench.point_ms."+env.points[i].name(), "ms", median(pointMs[i]))
	}
	b.count("dmaapi.maps", "count", maps)
	b.count("core.bytes_copied", "B", copied)
	b.count("shadow.pool_bytes", "B", poolBytes)
	b.count("shadow.grows", "count", grows)
	b.count("iommu.invalidations", "count", invals)
	b.count("iommu.faults", "count", faults)
	b.count("netstack.frames", "count", frames)
	b.count("nic.rx_drops", "count", drops)
	b.count("sim.dispatches", "count", dispatches)
	b.count("sim.fast_yields", "count", fastYields)
	b.set("iommu.iotlb_hit_rate", "ratio", hitRate)

	// Host time: engine dispatch and the DMA API's self time, from the
	// spans, as medians over the traced passes.
	per := func(f func(map[string]*tally) float64) float64 {
		var v []float64
		for _, s := range sums {
			v = append(v, f(s))
		}
		return median(v)
	}
	b.set("sim.run_ns_per_dispatch", "ns", per(func(s map[string]*tally) float64 {
		var ns float64
		for k, t := range s {
			if strings.HasPrefix(k, "sim.run.") {
				ns += t.runNs
			}
		}
		return ns / dispatches
	}))
	b.set("sim.self_ns_per_dispatch", "ns", per(func(s map[string]*tally) float64 {
		var ns float64
		for k, t := range s {
			if strings.HasPrefix(k, "sim.run.") {
				ns += t.selfNs
			}
		}
		return ns / dispatches
	}))
	for _, sys := range bench.AllSystems {
		sl := slug(sys)
		for _, op := range []string{"map", "unmap"} {
			key := "dmaapi." + op + "." + sl
			b.set("dmaapi."+op+"_self_ns."+sl, "ns", per(func(s map[string]*tally) float64 {
				if t := s[key]; t != nil {
					return t.selfNs / t.calls
				}
				return 0
			}))
		}
		var calls float64
		for k, t := range sums[0] {
			if strings.HasPrefix(k, "dmaapi.") && strings.HasSuffix(k, "."+sl) {
				calls += t.calls
			}
		}
		b.count("dmaapi.calls."+sl, "count", calls)
	}
	var allocs []float64
	for _, d := range plainMem {
		allocs = append(allocs, float64(d.allocs))
	}
	b.set("sim.dmas_per_host_s", "1/s", maps/median(plainSecs))
	b.set("dmaapi.allocs_per_dma", "count", median(allocs)/maps)
	b.set("bench.trace_overhead_pct", "%", 100*(median(tracedSecs)/median(plainSecs)-1))
	return nil
}

// suiteLayers runs one checked paper-suite pass for its per-section host
// times and the farm's scheduling counters.
func (r *run) suiteLayers(b *block) error {
	env, closeFn, err := setupSuite(r.root, r.workers)
	if err != nil {
		return err
	}
	defer closeFn()
	a, ms, err := env.suitePass()
	if err != nil {
		return fmt.Errorf("paper-suite pass: %w", err)
	}
	r.checkSuite(env, a, ms)
	for name, v := range ms {
		b.set("bench.section_ms."+name, "ms", v)
	}
	fs := env.farm.Stats()
	var util float64
	for _, u := range fs.UtilPct {
		util += u / float64(len(fs.UtilPct))
	}
	b.set("bench.farm_util_pct", "%", util)
	b.set("bench.farm_steals", "count", float64(fs.Steals))
	return nil
}

// daemonLayers runs a daemon session of a fixed request count, so its
// store and daemon counters repeat exactly, then times warm requests
// with no cold work running and the store's Get and Put directly.
func (r *run) daemonLayers(b *block) error {
	bases, err := loadMixBaselines(r.root)
	if err != nil {
		return err
	}
	env, closeFn, err := setupMix(r, filepath.Join(r.work, "layers"))
	if err != nil {
		return err
	}
	defer closeFn()
	chk := newMixCheck(r, bases)
	fill := chk.check(env.fill)
	md := env.md
	left := layerRounds * roundLen
	start := time.Now()
	recs := md.drive(r.workers, func() (mixReq, bool) {
		left--
		return env.gen.next(), left >= 0
	})
	secs := time.Since(start).Seconds()
	lat := chk.check(recs)
	b.set("daemon.req_per_s", "1/s", float64(len(recs))/secs)
	b.set("daemon.warm_p50_ms", "ms", median(lat.warmMs))
	b.set("daemon.cold_p50_ms", "ms", median(lat.coldMs))
	for _, tool := range []string{"chaosbench", "attackbench", "tenantbench"} {
		b.set("daemon.cold_ms."+tool, "ms", median(lat.coldByTool[tool]))
	}
	// Reproduce specs compute only while set-up fills the warm set.
	b.set("daemon.cold_ms.reproduce", "ms", median(fill.coldByTool["reproduce"]))

	h, err := md.client.Health()
	if err != nil {
		return err
	}
	c := h.Metrics.Counters
	hits, runs := float64(c["daemon.cache_hits"]), float64(c["daemon.runs"])
	b.set("daemon.cache_hit_ratio", "ratio", hits/(hits+runs))
	b.count("daemon.overloads", "count", float64(c["daemon.overloads"]))
	b.count("daemon.degraded", "count", float64(c["daemon.degraded"]))
	b.count("daemon.retries", "count", float64(c["daemon.retries"]))
	b.count("store.hits", "count", float64(h.Store.Hits))
	b.count("store.misses", "count", float64(h.Store.Misses))
	b.count("store.puts", "count", float64(h.Store.Puts))

	// Warm requests one at a time, nothing else running.
	warm := warmSet[len(warmSet)-1]
	var idle []float64
	var key string
	for i := 0; i < 200; i++ {
		start := time.Now()
		resp, err := md.client.Run(warm, 0, false, false)
		idle = append(idle, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil || !resp.OK || !resp.Cached {
			return fmt.Errorf("idle warm request: %v %+v", err, resp)
		}
		key = resp.Key
	}
	b.set("daemon.warm_idle_us", "us", median(idle))

	// The store alone, on the entry those requests read.
	st2 := md.d.Store()
	payload, err := st2.Get(key)
	if err != nil {
		return fmt.Errorf("store probe get: %w", err)
	}
	b.set("store.artifact_kib", "KiB", float64(len(payload))/1024)
	b.set("store.get_us", "us", perOp(200, func(int) {
		if _, gerr := st2.Get(key); gerr != nil {
			err = gerr
		}
	})/1e3)
	b.set("store.put_us", "us", perOp(50, func(i int) {
		k, kerr := store.Key(fmt.Sprintf("perfbench-put-%d", i))
		if kerr == nil {
			kerr = st2.Put(k, payload)
		}
		if kerr != nil {
			err = kerr
		}
	})/1e3)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	return nil
}
