package bench

import (
	"fmt"

	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// FleetSpec returns the replica blueprint of the fleet experiments: each
// replica is one 8-GPU node. engine selects what runs on it — "vllm"
// (static TP=8 continuous batching, the cheap default) or "loongserve"
// (the elastic TP=2 core).
func FleetSpec(engine string) (fleet.Spec, error) {
	m := model.LWM1MText()
	hw := cluster.A800()
	switch engine {
	case "vllm":
		return fleet.Spec{
			NewEngine: func() serving.Engine { return baselinesVLLM() },
			NewCluster: func() (*cluster.Cluster, error) {
				return cluster.New(m, hw, 1, 8, 8)
			},
		}, nil
	case "loongserve":
		return fleet.Spec{
			NewEngine: func() serving.Engine { return core.New(2, core.Options{}) },
			NewCluster: func() (*cluster.Cluster, error) {
				return cluster.New(m, hw, 1, 8, 2)
			},
		}, nil
	}
	return fleet.Spec{}, fmt.Errorf("bench: unknown fleet engine %q (want vllm or loongserve)", engine)
}

// vllmKind returns a fresh kind of FleetSpec("vllm") replicas. Fresh per
// run: parallel arms must not share a kind that is not resolved yet.
func vllmKind() *fleet.ReplicaKind {
	spec, err := FleetSpec("vllm")
	if err != nil {
		panic(err) // unreachable: the engine name is a constant
	}
	return fleet.NewKind("vllm", spec)
}

// FleetSessionTrace builds the multi-turn session trace for one arrival
// rate: session count scales with rate x duration so every point reaches
// steady state.
func FleetSessionTrace(rate float64, sc Scale) []workload.TimedRequest {
	cfg := workload.DefaultSessionConfig()
	cfg.SessionRate = rate
	cfg.Sessions = int(rate * sc.Duration)
	if minSessions := sc.MinN / cfg.MinTurns; cfg.Sessions < minSessions {
		cfg.Sessions = minSessions
	}
	return workload.SessionTrace(cfg, sc.Seed)
}

// MeanTTFT returns the mean client-observed time to first token, seconds.
func MeanTTFT(recs []metrics.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range recs {
		sum += r.InputLatency().Seconds()
	}
	return sum / float64(len(recs))
}

// FleetCaches is the cache-implementation axis of the fleet experiments,
// in presentation order.
var FleetCaches = []string{fleet.CacheWholeKey, fleet.CacheRadix}

// FleetExperiment compares the routing policies on a multi-replica fleet
// serving multi-turn chat sessions, under both prefix-cache
// implementations (whole-key LRU vs token-block radix): per (rate, cache,
// policy) point it reports goodput, mean TTFT, normalized input latency,
// the prefix-cache token hit ratio, and SLO attainment. The
// cache-affinity-vs-load tension is the whole story of the table:
// round-robin and pure load balancing scatter each conversation across
// replicas and recompute its history every turn, while prefix-affinity
// routing keeps sessions warm and turns the saved prefill into lower TTFT
// — until load imbalance would cost more than the cache saves. On this
// non-branching trace the two caches score close to each other (radix
// pays block quantization at every hit); FleetCacheExperiment shows where
// radix structurally wins.
func FleetExperiment(sc Scale) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fleet: routing policy comparison (%d replicas x 8 GPUs, multi-turn sessions)", sc.FleetReplicas),
		Header: []string{"rate(sess/s)", "cache", "policy", "goodput(req/s)", "TTFT(s)", "input(ms/t)", "hit-ratio", "SLO"},
	}
	// Arms are (rate, cache, policy) points. Traces are built once per rate
	// and shared read-only; each arm constructs its own (stateful) policy
	// and fleet, and fills its own row.
	traces := make([][]workload.TimedRequest, len(sc.FleetRates))
	for i, rate := range sc.FleetRates {
		traces[i] = FleetSessionTrace(rate, sc)
	}
	numPolicies := len(fleet.AllPolicies(sc.Seed))
	perRate := len(FleetCaches) * numPolicies
	rows := make([][]string, len(sc.FleetRates)*perRate)
	runArms(len(rows), sc.workers(), func(arm int) {
		rate := sc.FleetRates[arm/perRate]
		cache := FleetCaches[arm%perRate/numPolicies]
		policy := fleet.AllPolicies(sc.Seed)[arm%numPolicies]
		res, err := fleet.Run(traces[arm/perRate], fleet.Config{
			Groups: []fleet.ReplicaGroup{{Kind: vllmKind(), Count: sc.FleetReplicas}},
			Policy: policy,
			Cache:  cache,
		})
		if err != nil {
			cell := "ERR"
			if _, oom := err.(*serving.ErrOOM); oom {
				cell = "OOM"
			}
			rows[arm] = []string{fmt.Sprint(rate), cache, policy.Name(), cell, "-", "-", "-", "-"}
			return
		}
		s := metrics.Summarize(res.Records)
		rows[arm] = []string{fmt.Sprint(rate), cache, policy.Name(),
			f3(metrics.Goodput(res.Records)), f3(MeanTTFT(res.Records)),
			f4(s.MeanInput * 1e3), pct(res.TokenHitRatio()), pct(s.SLOAttainment)}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		"expected shape: PrefixAffinity leads the hit-ratio column and converts it into the lowest TTFT; RoundRobin recomputes conversation history every turn",
		"goodput counts requests finishing within the paper's 25x SLO over the arrival window")
	return t
}

// FleetCacheTrace builds the branching-session trace of the cache
// comparison: families of sessions that share a system prompt and a
// conversation trunk, then diverge — the workload shape whole-key caching
// structurally cannot exploit (every branch has its own session key) and
// radix caching can (the trunk's blocks are one shared tree path).
func FleetCacheTrace(sc Scale) []workload.TimedRequest {
	cfg := workload.DefaultSessionConfig()
	cfg.SessionRate = 3
	cfg.Sessions = int(cfg.SessionRate * sc.Duration)
	if minSessions := sc.MinN / cfg.MinTurns; cfg.Sessions < minSessions {
		cfg.Sessions = minSessions
	}
	cfg.BranchFactor = 4
	cfg.BranchTurns = 3
	return workload.SessionTrace(cfg, sc.Seed)
}

// FleetCacheExperiment is the whole-key vs radix head-to-head: the same
// branching-session trace, the same PrefixAffinity routing, the same
// deliberately tight per-replica cache capacity — only the cache
// implementation differs. Hit-tokens is the headline column: the radix
// cache shares each family's trunk block-for-block and prices eviction by
// recompute cost, so it must convert strictly more prompt tokens into
// cache hits at equal capacity.
func FleetCacheExperiment(sc Scale) *Table {
	trace := FleetCacheTrace(sc)
	st := workload.SummarizeSessions(trace)
	// Capacity is set well below the trace's reusable footprint so both
	// caches run under genuine eviction pressure.
	capTokens := int(st.PrefixTokens / int64(4*sc.FleetReplicas))
	if capTokens < 4*workload.BlockTokens {
		capTokens = 4 * workload.BlockTokens
	}
	t := &Table{
		Title: fmt.Sprintf("Fleet: whole-key vs radix prefix cache (branching sessions, %d replicas, %dK-token caches)",
			sc.FleetReplicas, capTokens/1000),
		Header: []string{"cache", "goodput(req/s)", "TTFT(s)", "hit-tokens", "hit-ratio", "hit-req", "evicted", "rejected", "SLO"},
	}
	rows := make([][]string, len(FleetCaches))
	runArms(len(rows), sc.workers(), func(arm int) {
		cache := FleetCaches[arm]
		res, err := fleet.Run(trace, fleet.Config{
			Groups:      []fleet.ReplicaGroup{{Kind: vllmKind(), Count: sc.FleetReplicas}},
			Policy:      fleet.NewPrefixAffinity(),
			Cache:       cache,
			CacheTokens: capTokens,
		})
		if err != nil {
			cell := "ERR"
			if _, oom := err.(*serving.ErrOOM); oom {
				cell = "OOM"
			}
			rows[arm] = []string{cache, cell, "-", "-", "-", "-", "-", "-", "-"}
			return
		}
		s := metrics.Summarize(res.Records)
		evicted, rejected := 0, 0
		for _, rs := range res.Replicas {
			evicted += rs.CacheEvicted
			rejected += rs.CacheRejected
		}
		rows[arm] = []string{cache,
			f3(metrics.Goodput(res.Records)), f3(MeanTTFT(res.Records)),
			fmt.Sprint(res.ComputeSavedTokens()), pct(res.TokenHitRatio()), pct(res.HitRequestRatio()),
			fmt.Sprint(evicted), fmt.Sprint(rejected), pct(s.SLOAttainment)}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		fmt.Sprintf("trace: %d requests, %d sessions in families of 4 sharing a 3-turn trunk; %.0f%% of input tokens prefix-reusable",
			st.Requests, st.Sessions, 100*float64(st.PrefixTokens)/float64(st.InputTokens)),
		"whole-key caching cannot share a trunk across branches (distinct session keys); the radix tree stores it once and every branch hits it",
		"radix eviction drops leaf blocks priced by the cost model's recompute time, not raw token counts")
	return t
}
