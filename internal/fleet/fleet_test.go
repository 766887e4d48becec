package fleet_test

import (
	"testing"

	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// vllmFleet builds a fleet of n single-node vLLM (TP=8) replicas, of a
// fresh kind per call.
func vllmFleet(n int) []fleet.ReplicaGroup {
	m := model.LWM1MText()
	hw := cluster.A800()
	kind := fleet.NewKind("vllm", fleet.Spec{
		NewEngine: func() serving.Engine { return baselines.NewVLLM(8) },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 8, 8)
		},
	})
	return []fleet.ReplicaGroup{{Kind: kind, Count: n}}
}

func sessionTrace() []workload.TimedRequest {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 48
	cfg.SessionRate = 3
	return workload.SessionTrace(cfg, 42)
}

// TestSingleReplicaMatchesServingRun is the results-preservation anchor:
// a one-replica fleet must reproduce a direct serving.Run record-for-
// record (same completion order, same timestamps), under every policy.
func TestSingleReplicaMatchesServingRun(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	trace := workload.PoissonTrace(workload.ShareGPT(), 20, 60, 9)

	c, err := cluster.New(m, hw, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serving.Run(baselines.NewVLLM(8), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, policy := range fleet.AllPolicies(3) {
		res, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(1), Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if len(res.Records) != len(want) {
			t.Fatalf("%s: %d records, want %d", policy.Name(), len(res.Records), len(want))
		}
		for i := range want {
			if res.Records[i] != want[i] {
				t.Fatalf("%s: record %d differs:\nfleet   %+v\ndirect  %+v", policy.Name(), i, res.Records[i], want[i])
			}
		}
	}
}

// TestPoliciesPreservePerRequestResults checks that on a multi-replica
// fleet every policy completes every request with the lengths the trace
// specified — routing moves requests, it must not alter them.
func TestPoliciesPreservePerRequestResults(t *testing.T) {
	trace := sessionTrace()
	for _, policy := range fleet.AllPolicies(5) {
		res, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(4), Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if len(res.Records) != len(trace) {
			t.Fatalf("%s: %d of %d completed", policy.Name(), len(res.Records), len(trace))
		}
		byID := make(map[int64]metrics.Record, len(res.Records))
		for _, rec := range res.Records {
			byID[rec.ID] = rec
		}
		for i, tr := range trace {
			rec, ok := byID[int64(i+1)]
			if !ok {
				t.Fatalf("%s: request %d missing", policy.Name(), i+1)
			}
			if rec.InputLen != tr.InputLen || rec.OutputLen != tr.OutputLen {
				t.Fatalf("%s: request %d lengths (%d,%d), trace (%d,%d)",
					policy.Name(), i+1, rec.InputLen, rec.OutputLen, tr.InputLen, tr.OutputLen)
			}
			if rec.FirstToken < rec.Arrival || rec.Finish < rec.FirstToken {
				t.Fatalf("%s: request %d has an inverted timeline %+v", policy.Name(), i+1, rec)
			}
		}
	}
}

// TestPrefixAffinityBeatsRoundRobinHitRatio is the headline acceptance
// property: on a multi-turn session trace over four replicas, affinity
// routing achieves a strictly higher prefix-cache token hit ratio than
// round-robin. Both runs are fully deterministic (seed 42).
func TestPrefixAffinityBeatsRoundRobinHitRatio(t *testing.T) {
	trace := sessionTrace()

	rr, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(4), Policy: fleet.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	aff, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(4), Policy: fleet.NewPrefixAffinity()})
	if err != nil {
		t.Fatal(err)
	}

	rrHit, affHit := rr.TokenHitRatio(), aff.TokenHitRatio()
	t.Logf("token hit ratio: RoundRobin %.3f, PrefixAffinity %.3f", rrHit, affHit)
	if affHit <= rrHit {
		t.Fatalf("PrefixAffinity hit ratio %.3f not strictly above RoundRobin %.3f", affHit, rrHit)
	}
	if affHit < 0.60 {
		t.Fatalf("PrefixAffinity hit ratio %.3f below 0.60 on a warm session trace", affHit)
	}
	if aff.ComputeSavedTokens() <= rr.ComputeSavedTokens() {
		t.Fatalf("affinity saved %d tokens, round-robin %d", aff.ComputeSavedTokens(), rr.ComputeSavedTokens())
	}

	// The saved prefill must show up as lower client-observed TTFT.
	sr, sa := metrics.Summarize(rr.Records), metrics.Summarize(aff.Records)
	if sa.MeanInput >= sr.MeanInput {
		t.Errorf("affinity normalized input latency %.5f not below round-robin %.5f", sa.MeanInput, sr.MeanInput)
	}
}

// TestFleetDeterminism re-runs one configuration and expects identical
// records and stats.
func TestFleetDeterminism(t *testing.T) {
	trace := sessionTrace()
	run := func() *fleet.Result {
		res, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(3), Policy: fleet.NewPrefixAffinity()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
	for i := range a.Replicas {
		if a.Replicas[i] != b.Replicas[i] {
			t.Fatalf("replica %d stats differ: %+v vs %+v", i, a.Replicas[i], b.Replicas[i])
		}
	}
}

// TestFleetSpreadsLoad sanity-checks that the load-aware policies use all
// replicas of a busy fleet.
func TestFleetSpreadsLoad(t *testing.T) {
	trace := sessionTrace()
	for _, policy := range []fleet.Policy{fleet.NewLeastLoaded(), fleet.NewPowerOfTwoChoices(1), fleet.NewPrefixAffinity()} {
		res, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(4), Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		for i, rs := range res.Replicas {
			if rs.Requests == 0 {
				t.Errorf("%s: replica %d served nothing", policy.Name(), i)
			}
		}
	}
}

// TestFleetOOMPropagates mirrors serving.Run's contract: an unservable
// request aborts the run with *serving.ErrOOM.
func TestFleetOOMPropagates(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	capTokens, err := cluster.KVCapacityTokens(m, hw, 8)
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: capTokens + 10, OutputLen: 8}}}
	_, err = fleet.Run(trace, fleet.Config{Groups: vllmFleet(2), Policy: fleet.NewLeastLoaded()})
	if _, ok := err.(*serving.ErrOOM); !ok {
		t.Fatalf("err = %v, want *serving.ErrOOM", err)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	trace := workload.PoissonTrace(workload.ShareGPT(), 5, 5, 1)
	if _, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(0)}); err == nil {
		t.Error("zero replicas accepted")
	}
	empty := fleet.NewKind("empty", fleet.Spec{})
	if _, err := fleet.Run(trace, fleet.Config{Groups: []fleet.ReplicaGroup{{Kind: empty, Count: 1}}}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(1), CacheTokens: -5}); err == nil {
		t.Error("negative cache capacity accepted")
	}
	for _, cold := range []int{-1, 1, workload.BlockTokens - 1} {
		if _, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(1), ColdTierTokens: cold}); err == nil {
			t.Errorf("cold tier of %d tokens accepted (a block is %d tokens)", cold, workload.BlockTokens)
		}
	}
}
