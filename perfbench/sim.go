package main

import (
	"fmt"
	"time"

	"loongserve/internal/autoscale"
	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/model"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// instance is one workload with its inputs built from a seed.
type instance interface {
	// fingerprint digests the generated inputs, so a changed generator
	// reads as "workload changed" rather than as a speed change.
	fingerprint() uint64
	// run executes the workload once and checks its outputs; tr is nil
	// for untraced runs.
	run(tr *tracer) (*outcome, error)
	close()
}

// outcome is one checked repetition.
type outcome struct {
	requests int        // requests completed (all of them: a failure is an error)
	digest   uint64     // output digest; must repeat exactly for one seed
	lat      *latencies // request timings
	// layer holds counts read from the program's public results, already
	// normalised to the per-layer metric names they report.
	layer map[string]float64
}

// Workload sizes. Each simulator workload holds enough requests that its
// simulated percentiles move little from seed to seed, and still fits a
// few repetitions (about 3 s each on a 2-core host) into a 20 s window;
// req_per_ref_s is their median. Host noise on a shared machine is mostly
// between runs, so more, shorter repetitions would not steady it; the
// calibration in calib.go takes most of it out.
const (
	espRequests = 16000
	// espRate sits just below the knee of one 8xA800 LoongServe node on
	// the Mixed trace: SLO attainment about 0.96, TTFT still mostly
	// prefill. Closer to the knee, queueing makes the median TTFT swing by
	// a fifth from seed to seed.
	espRate = 0.05
)

var (
	lwm  = model.LWM1MText()
	a800 = cluster.A800()
)

// --- esp-single --------------------------------------------------------

type espSingle struct {
	trace []workload.TimedRequest
	c     *cluster.Cluster
	cm    *costmodel.CostModel
}

func setupESP(seed int64, tr *tracer) (instance, error) {
	sp := tr.begin("setup.inputs", -1)
	trace := workload.PoissonTrace(workload.Mixed(), espRate, espRequests, seed)
	tr.end(sp)
	sp = tr.begin("setup.cluster", -1)
	defer tr.end(sp)
	c, err := cluster.New(lwm, a800, 1, 8, 2)
	if err != nil {
		return nil, err
	}
	return &espSingle{trace: trace, c: c, cm: costmodel.New(c.Model, c.HW)}, nil
}

func (w *espSingle) fingerprint() uint64 {
	h := fnvOffset
	for _, r := range w.trace {
		h.i64(int64(r.Arrival))
		h.entry(r.Entry)
	}
	return uint64(h)
}

func (w *espSingle) close() {}

func (w *espSingle) run(tr *tracer) (*outcome, error) {
	eng := core.New(2, core.Options{})
	var e serving.Engine = eng
	if tr != nil {
		e = tr.engine(eng, false)
	}
	sp := tr.begin("serving.RunWithStats", -1)
	recs, st, err := serving.RunWithStats(e, w.c, w.cm, w.trace, serving.DefaultRunConfig())
	tr.end(sp)
	if err != nil {
		return nil, err // includes *serving.ErrOOM
	}
	sp = tr.begin("summary", -1)
	defer tr.end(sp)
	if err := eng.CheckDrained(); err != nil {
		return nil, err
	}
	if len(recs) != len(w.trace) {
		return nil, fmt.Errorf("%d of %d requests completed", len(recs), len(w.trace))
	}
	seen := make([]bool, len(w.trace)+1)
	lat := &latencies{n: len(recs)}
	h := fnvOffset
	for _, r := range recs {
		if r.ID < 1 || int(r.ID) > len(w.trace) || seen[r.ID] {
			return nil, fmt.Errorf("request %d completed twice or was never submitted", r.ID)
		}
		seen[r.ID] = true
		h.i64(r.ID)
		h.i64(int64(r.FirstToken))
		h.i64(int64(r.Finish))
		lat.ttft = append(lat.ttft, ms(r.FirstToken-r.Arrival))
		if r.OutputLen > 1 {
			lat.tpot = append(lat.tpot, ms(r.Finish-r.FirstToken)/float64(r.OutputLen-1))
		}
		if r.Finish-r.Arrival <= r.SLOBudget {
			lat.met++
		}
	}
	lat.window = (w.trace[len(w.trace)-1].Arrival - w.trace[0].Arrival).Seconds()
	n := float64(len(recs))
	return &outcome{
		requests: len(recs),
		digest:   uint64(h),
		lat:      lat,
		layer: map[string]float64{
			"simevent.events_per_req":  float64(st.Events) / n,
			"core.fused_iters_per_req": float64(eng.FusionStats().Iters) / n,
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// --- fleets --------------------------------------------------------------

// fleetRun is the state one fleet repetition shares with its engine
// constructors.
type fleetRun struct {
	tr      *tracer
	sharded bool
	cores   []*core.Engine // LoongServe engines built this repetition
}

func (f *fleetRun) wrap(e serving.Engine) serving.Engine {
	if c, ok := e.(*core.Engine); ok {
		f.cores = append(f.cores, c)
	}
	if f.tr == nil {
		return e
	}
	return f.tr.engine(e, f.sharded)
}

// vllmKind is a single-GPU continuous-batching replica.
func (f *fleetRun) vllmKind(name string) *fleet.ReplicaKind {
	return fleet.NewKind(name, fleet.Spec{
		NewEngine:  func() serving.Engine { return f.wrap(baselines.NewVLLM(1)) },
		NewCluster: func() (*cluster.Cluster, error) { return cluster.New(lwm, a800, 1, 1, 1) },
	})
}

// loongKind is an 8-GPU LoongServe replica (four TP=2 elastic instances).
func (f *fleetRun) loongKind() *fleet.ReplicaKind {
	return fleet.NewKind("loong", fleet.Spec{
		NewEngine:  func() serving.Engine { return f.wrap(core.New(2, core.Options{})) },
		NewCluster: func() (*cluster.Cluster, error) { return cluster.New(lwm, a800, 1, 8, 2) },
	})
}

// fleetOutcome checks a finished fleet run and extracts its outcome.
func fleetOutcome(res *fleet.Result, sink *fleetSink, aud *analyze.Auditor, submitted int, f *fleetRun) (*outcome, error) {
	if err := sink.check(submitted); err != nil {
		return nil, err
	}
	if v := aud.Finalize(); len(v) > 0 {
		return nil, fmt.Errorf("stream auditor: %d violations, first: %v", len(v), v[0])
	}
	h := sink.digest
	h.fleetResult(res)
	n := float64(submitted)
	var hit, reusable, evicted, rejected int64
	for _, r := range res.Replicas {
		hit += r.HitTokens
		reusable += r.PrefixTokens
		evicted += int64(r.CacheEvicted)
		rejected += int64(r.CacheRejected)
	}
	fused := 0
	for _, c := range f.cores {
		fused += c.FusionStats().Iters
	}
	layer := map[string]float64{
		"simevent.events_per_req":               float64(res.SimEvents) / n,
		"core.fused_iters_per_req":              float64(fused) / n,
		"obs.events_per_req":                    float64(sink.events) / n,
		"fleet.radix.evictions_per_req":         float64(evicted) / n,
		"fleet.radix.rejects_per_req":           float64(rejected) / n,
		"fleet.coldtier.spills_per_req":         float64(res.Cold.Spilled) / n,
		"fleet.coldtier.fetched_tokens_per_req": float64(res.Cold.FetchedTokens) / n,
		"fleet.mean_replicas":                   res.MeanReplicas(),
		"fleet.migrations_per_req":              float64(res.Migrations.Count) / n,
		"fleet.migration_tokens_per_req":        float64(res.Migrations.Tokens) / n,
	}
	if reusable > 0 {
		layer["fleet.radix.hit_token_ratio"] = float64(hit) / float64(reusable)
	}
	return &outcome{requests: submitted, digest: uint64(h), lat: &sink.lat, layer: layer}, nil
}

// --- fleet-elastic -------------------------------------------------------

// fleetElasticConfig is closed-loop bursty chat: branching conversation
// families (a shared trunk, block-level reuse) mixed with long pasted
// documents (large private prefixes that churn small caches).
func fleetElasticConfig() workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.ClosedLoop = true
	cfg.Sessions = 12000
	cfg.SessionRate = 2
	cfg.BurstFactor = 3
	cfg.BurstPeriod = 60
	cfg.BurstDuty = 0.3
	cfg.MinTurns, cfg.MaxTurns = 2, 5
	cfg.ThinkMean = 2
	cfg.PromptGroups = 8
	cfg.BranchFactor = 4
	cfg.BranchTurns = 2
	cfg.LongFrac = 0.25
	cfg.LongDocTokens = 6000
	return cfg
}

// Radix caches of 40 blocks and a 160-block cold tier: far below the
// working set, so residency churns, evictions spill, and routing by
// directory content decides the hit ratio.
const (
	elasticCacheTokens = 40 * workload.BlockTokens
	elasticColdTokens  = 160 * workload.BlockTokens
)

type fleetElastic struct {
	scripts []workload.SessionScript
	f       *fleetRun
	kind    *fleet.ReplicaKind
}

func setupFleetElastic(seed int64, tr *tracer) (instance, error) {
	sp := tr.begin("setup.inputs", -1)
	scripts := workload.SessionScripts(fleetElasticConfig(), seed)
	tr.end(sp)
	sp = tr.begin("setup.kinds", -1)
	defer tr.end(sp)
	f := &fleetRun{}
	kind := f.vllmKind("vllm")
	if err := kind.Resolve(); err != nil {
		return nil, err
	}
	return &fleetElastic{scripts: scripts, f: f, kind: kind}, nil
}

func (w *fleetElastic) fingerprint() uint64 {
	h := fnvOffset
	for i := range w.scripts {
		h.script(&w.scripts[i])
	}
	return uint64(h)
}

func (w *fleetElastic) close() {}

func (w *fleetElastic) run(tr *tracer) (*outcome, error) {
	*w.f = fleetRun{tr: tr}
	sink, aud := newFleetSink(), analyze.NewAuditor()
	fcfg := fleet.Config{
		Policy:         fleet.NewContentAffinity(),
		Cache:          fleet.CacheRadix,
		CacheTokens:    elasticCacheTokens,
		Directory:      true,
		ColdTierTokens: elasticColdTokens,
		Obs:            tee{sink, aud},
	}
	if tr != nil {
		fcfg.Obs = tee{sink, tr.sink(aud)}
	}
	acfg := autoscale.DefaultConfig()
	// Single-GPU replicas batch far fewer requests than the default
	// thresholds assume; scale on a shallow queue.
	acfg.Min, acfg.Max = 2, 16
	acfg.UpAt, acfg.DownAt = 6, 3
	acfg.Warmup = 5 * time.Second
	acfg.Kinds = []*fleet.ReplicaKind{w.kind}
	sp := tr.begin("autoscale.RunKinds", -1)
	res, err := autoscale.RunKinds(w.scripts, fcfg, acfg, true)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("audit", -1)
	defer tr.end(sp)
	out, err := fleetOutcome(res.Result, sink, aud, workload.NumRequests(w.scripts), w.f)
	if err != nil {
		return nil, err
	}
	out.layer["autoscale.scale_ups"] = float64(res.ScaleUps)
	return out, nil
}

// --- fleet-stream --------------------------------------------------------

// fleetStreamConfig has the day-long trace's shape at a fraction of its
// length: short chat sessions at a high sustained rate, many prompt
// groups, and a small long-document tail that only the LoongServe
// replicas can hold comfortably.
func fleetStreamConfig() workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 8000
	cfg.SessionRate = 10
	cfg.MinTurns, cfg.MaxTurns = 2, 3
	cfg.ThinkMean = 6
	cfg.PromptGroups = 16
	cfg.UserTokens, cfg.ReplyTokens = 200, 220
	cfg.LongFrac = 0.05
	cfg.LongDocTokens = 30_000
	cfg.LongDocMax = 60_000
	return cfg
}

// The timed fleet-stream runs use the barrier runner at one shard
// (inline). At two shards, one per processor of a shared 2-core machine,
// their rate spread by up to 0.4 between runs minutes apart; the second
// worker is only as fast as the other processor happens to be. The
// correctness gate still requires the 2-shard output to equal the timed
// one, and the traced run times both.
const (
	timedShards    = 1
	parallelShards = 2
)

type fleetStream struct {
	seed   int64
	cfg    workload.SessionConfig
	f      *fleetRun
	groups []fleet.ReplicaGroup
	total  int // requests the stream emits
}

func setupFleetStream(seed int64, tr *tracer) (instance, error) {
	// The runs sample the stream lazily as they go; set-up draws it once
	// to learn how many requests the runs must complete.
	sp := tr.begin("setup.inputs", -1)
	cfg := fleetStreamConfig()
	total := streamRequests(cfg, seed)
	tr.end(sp)
	sp = tr.begin("setup.kinds", -1)
	defer tr.end(sp)
	f := &fleetRun{}
	loong, small := f.loongKind(), f.vllmKind("contbatch")
	for _, k := range []*fleet.ReplicaKind{loong, small} {
		if err := k.Resolve(); err != nil {
			return nil, err
		}
	}
	return &fleetStream{
		seed:   seed,
		cfg:    cfg,
		f:      f,
		groups: []fleet.ReplicaGroup{{Kind: loong, Count: 8}, {Kind: small, Count: 56}},
		total:  total,
	}, nil
}

// streamRequests counts the requests a lazy session stream emits.
func streamRequests(cfg workload.SessionConfig, seed int64) int {
	n := 0
	st := workload.StreamSessions(cfg, seed)
	for fam := st.Next(); fam != nil; fam = st.Next() {
		n += workload.NumRequests(fam)
	}
	return n
}

// fingerprint drains another copy of the lazy stream.
func (w *fleetStream) fingerprint() uint64 {
	h := fnvOffset
	st := workload.StreamSessions(w.cfg, w.seed)
	for fam := st.Next(); fam != nil; fam = st.Next() {
		for i := range fam {
			h.script(&fam[i])
		}
	}
	return uint64(h)
}

func (w *fleetStream) close() {}

func (w *fleetStream) run(tr *tracer) (*outcome, error) { return w.runShards(tr, timedShards) }

// runShards runs the stream at the given shard count (0 = the legacy
// single-heap runner).
func (w *fleetStream) runShards(tr *tracer, shards int) (*outcome, error) {
	*w.f = fleetRun{tr: tr, sharded: shards > 1}
	sink, aud := newFleetSink(), analyze.NewAuditor()
	var policy fleet.Policy = fleet.NewCapabilityAffinity()
	cfg := fleet.Config{
		Groups:        w.groups,
		SLOKind:       w.groups[0].Kind,
		Policy:        policy,
		Cache:         fleet.CacheRadix,
		StreamMetrics: true,
		Shards:        shards,
		FuseDecode:    true,
		Obs:           tee{sink, aud},
	}
	if tr != nil {
		cfg.Policy = tr.policy(policy)
		cfg.Obs = tee{sink, tr.sink(aud)}
	}
	sp := tr.begin("fleet.RunSessionStream", -1)
	res, err := fleet.RunSessionStream(workload.StreamSessions(w.cfg, w.seed), cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("audit", -1)
	defer tr.end(sp)
	return fleetOutcome(res, sink, aud, w.total, w.f)
}
