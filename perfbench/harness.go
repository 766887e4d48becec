package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// workloads maps each workload name to its set-up. Set-up builds the
// generated inputs and everything the program needs before serving them;
// the program then receives only those inputs.
var workloads = map[string]func(seed int64, tr *tracer) (instance, error){
	"esp-single":    setupESP,
	"fleet-elastic": setupFleetElastic,
	"fleet-stream":  setupFleetStream,
	"http-toy":      setupHTTP,
}

// A run sets the workload up at least minSetups times and until setupWindow
// seconds have passed (at most maxSetups times); setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 51
	setupWindow = 1.0
)

// setUp builds the workload repeatedly, keeping the last instance, and
// returns the median set-up time.
func setUp(setup func(int64, *tracer) (instance, error), seed int64) (instance, []float64, error) {
	var times []float64
	var inst instance
	start := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && since(start) < setupWindow) {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = setup(seed, nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, since(t0))
	}
	return inst, times, nil
}

// reference runs the workload once untimed (warm-up) and applies the
// correctness gate that needs a second configuration.
func reference(inst instance) (*outcome, []string, error) {
	ref, err := inst.run(nil)
	if err != nil {
		return nil, nil, err
	}
	var notes []string
	if fs, ok := inst.(*fleetStream); ok {
		par, err := fs.runShards(nil, parallelShards)
		if err != nil {
			return nil, nil, fmt.Errorf("%d-shard pass: %w", parallelShards, err)
		}
		if par.digest != ref.digest {
			return nil, nil, fmt.Errorf("%d-shard output digest %016x differs from the %d-shard one %016x", parallelShards, par.digest, timedShards, ref.digest)
		}
		notes = append(notes, fmt.Sprintf("%d-shard output digest equals the %d-shard one", parallelShards, timedShards))
	}
	return ref, notes, nil
}

// measure is the untraced run: set-up, warm-up and checks, then
// repetitions until the window closes. Every repetition must reproduce the
// reference output digest.
func measure(name string, seed int64, seconds float64) (*result, error) {
	// Timed runs use one processor. The simulator runs on one goroutine
	// (fleet-stream's timed runs use one shard), and a second processor
	// would only run the garbage collector's background marking beside it;
	// http-toy's clients and server would hand off across processors on
	// every token. Either way the run's speed would follow how busy the
	// other processor happens to be, which the single-threaded calibration
	// kernel does not see. On one processor a run's time is its CPU work.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cal := &calibrator{}
	inst, setups, err := setUp(workloads[name], seed)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	fp := inst.fingerprint()
	ref, notes, err := reference(inst)
	if err != nil {
		return nil, err
	}
	// The peak is read before the first calibration pass, whose garbage
	// would otherwise add to it: set-up and one whole repetition have run.
	rss := peakRSSMB()

	sim := name != "http-toy"
	lat := ref.lat
	if !sim {
		lat = &latencies{} // host timings pool over the timed repetitions
	}
	var rates []float64 // requests per host second, per repetition
	attempted := 0
	start := time.Now()
	// On a slow host http-toy may need longer than the window to collect
	// the samples its p99s need; it runs on until it has them.
	for len(rates) == 0 || since(start) < seconds || (!sim && len(lat.ttft) < minP99Samples && since(start) < 10*seconds) {
		cal.catchUp(since(start) - cal.spent)
		// Every repetition starts from a collected heap, so it pays for its
		// own garbage rather than for a share of its predecessor's.
		runtime.GC()
		t0 := time.Now()
		o, err := inst.run(nil)
		if err != nil {
			return nil, err
		}
		wall := since(t0)
		if o.digest != ref.digest {
			return nil, fmt.Errorf("repetition %d output digest %016x differs from %016x", len(rates)+1, o.digest, ref.digest)
		}
		rates = append(rates, float64(o.requests)/wall)
		attempted += o.requests
		if !sim {
			lat.ttft = append(lat.ttft, o.lat.ttft...)
			lat.tpot = append(lat.tpot, o.lat.tpot...)
			lat.itl = append(lat.itl, o.lat.itl...)
			lat.met += o.lat.met
			lat.n += o.lat.n
		}
	}
	window := since(start)
	perHost := median(rates)
	if !sim {
		// Goodput counts SLO-met completions over the reference seconds
		// the repetitions take at their median rate, so that one slow
		// repetition moves it no more than it moves req_per_ref_s.
		lat.window = cal.refSeconds(float64(lat.n) / perHost)
	}
	latReport, latJSON, err := latencyMetrics(lat, sim)
	if err != nil {
		return nil, err
	}
	repNote := fmt.Sprintf("median of %d repetitions over %.1f s", len(rates), window)
	host := []metric{
		{Name: "setup_s", Value: cal.refSeconds(median(setups)), Unit: "s", Note: fmt.Sprintf("median of %d set-ups, in reference seconds; %.4g host seconds", len(setups), median(setups))},
		{Name: "req_per_ref_s", Value: perHost / cal.speed(), Unit: "req/ref_s", Note: repNote},
		{Name: "peak_rss_mb", Value: rss, Unit: "MB", Note: "process peak resident set over set-up and the untimed repetition"},
	}
	res := &result{
		workload:  name,
		seed:      seed,
		attempted: attempted,
		header: append([]string{
			fmt.Sprintf("input fingerprint %016x", fp),
			fmt.Sprintf("output digest %016x (identical in all %d repetitions)", ref.digest, len(rates)+1),
			fmt.Sprintf("host speed %.4g of the reference host (median of %d calibration passes)", cal.speed(), len(cal.passes)),
		}, notes...),
		json: append(host, latJSON...),
	}
	res.report = []metric{host[0], host[1],
		{Name: "req_per_s", Value: perHost, Unit: "req/s", Note: "per host second, which follows the host's speed"},
		host[2],
		{Name: "fail_frac", Value: 0, Unit: "ratio", Note: fmt.Sprintf("0 of %d attempted (any failure aborts the run)", attempted)}}
	res.report = append(res.report, latReport...)
	return res, nil
}

// tracePairs is how many untraced/traced repetition pairs measure the
// tracing overhead.
const tracePairs = 3

// memProfileRate samples one allocation per 512 bytes on average during
// the allocation pass; allocsByModule scales the samples back up.
const memProfileRate = 512

// traced is the per-layer run. It is separate from the timed runs and
// reports its own overhead: an untimed warm-up, tracePairs pairs of
// untraced and span-traced repetitions (whose medians differ by the
// tracing overhead, and whose digests must all agree), a CPU-profile pass,
// an allocation-profile pass and, on fleet-stream, the 1-shard and
// legacy-runner passes.
func traced(name string, seed int64, seconds float64, outDir string) (*result, error) {
	setupTr := newTracer()
	inst, err := workloads[name](seed, setupTr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	fp := inst.fingerprint()
	ref, notes, err := reference(inst)
	if err != nil {
		return nil, err
	}
	layer := make(map[string]float64)
	na := make(map[string]string)

	// Untraced and traced repetitions, alternating which goes first; the
	// medians' difference is the tracing overhead.
	var plain, tout *outcome
	var tr *tracer
	var plainWalls, tracedWalls []float64
	for i := 0; i < tracePairs; i++ {
		for _, traced := range [2]bool{i%2 == 1, i%2 == 0} {
			var t *tracer
			if traced {
				t = newTracer()
			}
			runtime.GC()
			t0 := time.Now()
			o, err := inst.run(t)
			if err != nil {
				return nil, err
			}
			if o.digest != ref.digest {
				return nil, fmt.Errorf("output digest %016x (traced: %v) differs from %016x", o.digest, traced, ref.digest)
			}
			if traced {
				tracedWalls, tout, tr = append(tracedWalls, since(t0)), o, t
			} else {
				plainWalls, plain = append(plainWalls, since(t0)), o
			}
		}
	}
	wallPlain, wallTraced := median(plainWalls), median(tracedWalls)
	for k, v := range plain.layer {
		layer[k] = v
	}
	layer["trace.overhead_s"] = wallTraced - wallPlain
	layer["trace.overhead_frac"] = (wallTraced - wallPlain) / wallPlain
	if ev := layer["simevent.events_per_req"]; ev > 0 {
		layer["simevent.ns_per_event"] = wallPlain * 1e9 / (ev * float64(plain.requests))
	}
	stats := tr.stats()
	seamMetrics(name, tr, stats, tout, layer, na)
	if s := setupTr.stats()["setup.inputs"]; s != nil {
		layer["workload.gen_s"] = float64(s.total) / 1e9
	}
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.tsv", name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	// CPU-profile pass: untraced repetitions for the window, sampled.
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	start, reqs, reps := time.Now(), 0, 0
	for reps == 0 || since(start) < seconds {
		o, err := inst.run(nil)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		reqs += o.requests
		reps++
	}
	pprof.StopCPUProfile()
	wall := since(start)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	shares, nsamples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	n := float64(reqs)
	layer["runtime.cpu_per_wall"] = cpu / wall
	layer["runtime.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / n
	layer["runtime.alloc_bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	layer["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	// Allocation-profile pass: one repetition, sampled densely.
	defaultRate := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	before := memSnapshot()
	o, err := inst.run(nil)
	if err != nil {
		return nil, err
	}
	allocs := allocsByModule(before, memSnapshot(), memProfileRate)
	runtime.MemProfileRate = defaultRate
	for m := range allocs {
		allocs[m] /= float64(o.requests)
	}

	for _, m := range modules {
		layer[m+".cpu_share"] = shares[m]
		layer[m+".allocs_per_req"] = allocs[m]
	}

	if fs, ok := inst.(*fleetStream); ok {
		if err := shardLadder(fs, ref, layer, &notes); err != nil {
			return nil, err
		}
	}

	res := &result{
		workload:  name,
		seed:      seed,
		attempted: ref.requests + tracePairs*(plain.requests+tout.requests) + reqs + o.requests,
		header: append([]string{
			fmt.Sprintf("input fingerprint %016x", fp),
			fmt.Sprintf("output digest %016x (traced repetition identical)", ref.digest),
			fmt.Sprintf("median repetition %.3f s untraced, %.3f s traced; CPU profile: %d samples over %d repetitions (%.1f s)",
				wallPlain, wallTraced, nsamples, reps, wall),
			fmt.Sprintf("spans written to %s", spanFile),
		}, notes...),
		tables: []string{
			shareTable("CPU share by module", shares, ""),
			shareTable("allocations per request by module", allocs, "allocs/req"),
			spanTable(stats),
			tr.emitTable(),
		},
	}
	for _, def := range perLayer() {
		v, ok := layer[def.name]
		m := metric{Name: def.name, Value: v, Unit: def.unit}
		if !ok {
			m.NA = na[def.name]
			if m.NA == "" {
				m.NA = "not exercised by " + name
			}
		}
		res.report = append(res.report, m)
		res.json = append(res.json, metric{Name: def.name, Value: v, Unit: def.unit})
	}
	return res, nil
}

// shardLadder times fleet-stream once each at 2 shards, at 1 shard and on
// the legacy single-heap runner over the same feed. The sharded outputs
// must equal the reference; the legacy runner may order same-instant
// cross-replica events differently, so its digest is reported, not
// required to match.
func shardLadder(fs *fleetStream, ref *outcome, layer map[string]float64, notes *[]string) error {
	for _, arm := range []struct {
		shards int
		metric string
	}{{parallelShards, "fleet.shard.wall_2shard_s"}, {1, "fleet.shard.wall_1shard_s"}, {0, "fleet.shard.wall_legacy_s"}} {
		runtime.GC()
		t0 := time.Now()
		o, err := fs.runShards(nil, arm.shards)
		if err != nil {
			return err
		}
		layer[arm.metric] = since(t0)
		switch {
		case arm.shards == 0:
			same := "equals"
			if o.digest != ref.digest {
				same = "differs from"
			}
			*notes = append(*notes, fmt.Sprintf("legacy-runner output digest %016x %s the sharded one", o.digest, same))
		case o.digest != ref.digest:
			return fmt.Errorf("%d-shard digest %016x differs from the reference %016x", arm.shards, o.digest, ref.digest)
		}
	}
	return nil
}

// seamMetrics derives per-layer figures from the traced repetition's spans.
func seamMetrics(name string, tr *tracer, stats map[string]*spanStat, o *outcome, layer map[string]float64, na map[string]string) {
	mean := func(s *spanStat) float64 { return float64(s.total) / float64(s.count) }
	if s := stats["serving.Engine.Arrive"]; s != nil {
		layer["serving.arrive_us"] = mean(s) / 1e3
	}
	picks, pickNs := 0, int64(0)
	for _, k := range []string{"fleet.Policy.Pick", "fleet.Policy.PickMigrate"} {
		if s := stats[k]; s != nil {
			picks += s.count
			pickNs += s.total
		}
	}
	if picks > 0 {
		layer["fleet.policy.pick_us"] = float64(pickNs) / 1e3 / float64(picks)
	}
	if name == "fleet-elastic" {
		na["fleet.policy.pick_us"] = "ContentAffinity stays unwrapped (the gateway type-asserts it); see fleet.policy.cpu_share"
	}
	if s := stats["obs.Sink.Emit"]; s != nil {
		layer["obs.analyze.emit_ns"] = mean(s)
	}
	if ttft := tr.firstTokenMs(); len(ttft) > 0 {
		server := mean64(ttft)
		layer["frontend.server_ttft_ms"] = server
		layer["http.overhead_ms"] = mean64(o.lat.ttft) - server
	}
}

func mean64(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayerDef names one per-layer metric and its unit.
type perLayerDef struct{ name, unit string }

// perLayer lists every per-layer metric in BENCHMARK.json order.
func perLayer() []perLayerDef {
	var defs []perLayerDef
	for _, m := range modules {
		defs = append(defs, perLayerDef{m + ".cpu_share", "ratio"}, perLayerDef{m + ".allocs_per_req", "allocs/req"})
	}
	defs = append(defs,
		perLayerDef{"serving.arrive_us", "us"},
		perLayerDef{"core.fused_iters_per_req", "iters/req"},
		perLayerDef{"simevent.events_per_req", "events/req"},
		perLayerDef{"simevent.ns_per_event", "ns"},
		perLayerDef{"obs.events_per_req", "events/req"},
		perLayerDef{"fleet.policy.pick_us", "us"},
		perLayerDef{"fleet.radix.hit_token_ratio", "ratio"},
		perLayerDef{"fleet.radix.evictions_per_req", "blocks/req"},
		perLayerDef{"fleet.radix.rejects_per_req", "blocks/req"},
		perLayerDef{"fleet.coldtier.spills_per_req", "blocks/req"},
		perLayerDef{"fleet.coldtier.fetched_tokens_per_req", "tokens/req"},
		perLayerDef{"fleet.shard.wall_2shard_s", "s"},
		perLayerDef{"fleet.shard.wall_1shard_s", "s"},
		perLayerDef{"fleet.shard.wall_legacy_s", "s"},
		perLayerDef{"runtime.cpu_per_wall", "ratio"},
		perLayerDef{"autoscale.scale_ups", "count"},
		perLayerDef{"fleet.mean_replicas", "replicas"},
		perLayerDef{"fleet.migrations_per_req", "count/req"},
		perLayerDef{"fleet.migration_tokens_per_req", "tokens/req"},
		perLayerDef{"obs.analyze.emit_ns", "ns"},
		perLayerDef{"workload.gen_s", "s"},
		perLayerDef{"runtime.allocs_per_req", "allocs/req"},
		perLayerDef{"runtime.alloc_bytes_per_req", "bytes/req"},
		perLayerDef{"runtime.gc_cycles", "count"},
		perLayerDef{"runtime.gc_pause_ms", "ms"},
		perLayerDef{"frontend.server_ttft_ms", "ms"},
		perLayerDef{"http.overhead_ms", "ms"},
		perLayerDef{"frontend.tokens_per_iter", "tokens/iter"},
		perLayerDef{"frontend.max_batch", "count"},
		perLayerDef{"trace.overhead_s", "s"},
		perLayerDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}
