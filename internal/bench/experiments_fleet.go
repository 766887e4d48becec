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

// FleetExperiment compares the routing policies on a multi-replica fleet
// serving multi-turn chat sessions: per (rate, policy) point it reports
// goodput, mean TTFT, normalized input latency, the prefix-cache token hit
// ratio, and SLO attainment. The cache-affinity-vs-load tension is the
// whole story of the table: round-robin and pure load balancing scatter
// each conversation across replicas and recompute its history every turn,
// while prefix-affinity routing keeps sessions warm and turns the saved
// prefill into lower TTFT — until load imbalance would cost more than the
// cache saves.
func FleetExperiment(sc Scale) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fleet: routing policy comparison (%d replicas x 8 GPUs, multi-turn sessions)", sc.FleetReplicas),
		Header: []string{"rate(sess/s)", "policy", "goodput(req/s)", "TTFT(s)", "input(ms/t)", "hit-ratio", "SLO"},
	}
	// Arms are (rate, policy) points. Traces are built once per rate and
	// shared read-only; each arm constructs its own (stateful) policy and
	// fleet, and fills its own row.
	traces := make([][]workload.TimedRequest, len(sc.FleetRates))
	for i, rate := range sc.FleetRates {
		traces[i] = FleetSessionTrace(rate, sc)
	}
	numPolicies := len(fleet.AllPolicies(sc.Seed))
	rows := make([][]string, len(sc.FleetRates)*numPolicies)
	runArms(len(rows), sc.workers(), func(arm int) {
		rate := sc.FleetRates[arm/numPolicies]
		policy := fleet.AllPolicies(sc.Seed)[arm%numPolicies]
		res, err := fleet.Run(traces[arm/numPolicies], fleet.Config{
			Groups: []fleet.ReplicaGroup{{Kind: vllmKind(), Count: sc.FleetReplicas}},
			Policy: policy,
		})
		if err != nil {
			cell := "ERR"
			if _, oom := err.(*serving.ErrOOM); oom {
				cell = "OOM"
			}
			rows[arm] = []string{fmt.Sprint(rate), policy.Name(), cell, "-", "-", "-", "-"}
			return
		}
		s := metrics.Summarize(res.Records)
		rows[arm] = []string{fmt.Sprint(rate), policy.Name(),
			f3(metrics.Goodput(res.Records)), f3(MeanTTFT(res.Records)),
			f4(s.MeanInput * 1e3), pct(res.TokenHitRatio()), pct(s.SLOAttainment)}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		"expected shape: PrefixAffinity leads the hit-ratio column and converts it into the lowest TTFT; RoundRobin recomputes conversation history every turn",
		"goodput counts requests finishing within the paper's 25x SLO over the arrival window")
	return t
}
