package fleet_test

import (
	"reflect"
	"strings"
	"testing"

	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// Small test kinds: a 4-GPU ESP node (long-context capable, KV shards
// across two TP=2 instances) and a single-GPU continuous-batching node.
func loongKind(t *testing.T) *fleet.ReplicaKind {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	return fleet.NewKind("loong", fleet.Spec{
		NewEngine: func() serving.Engine { return core.New(2, core.Options{}) },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 4, 2)
		},
	})
}

func cheapKind(t *testing.T) *fleet.ReplicaKind {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	return fleet.NewKind("cheap", fleet.Spec{
		NewEngine: func() serving.Engine { return baselines.NewVLLM(1) },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 1, 1)
		},
	})
}

// mixedWorkload is a chat+long-document session mix sized for fast tests.
func mixedWorkload(sessions int) workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = sessions
	cfg.SessionRate = 2
	cfg.MinTurns, cfg.MaxTurns = 2, 4
	cfg.ThinkMean = 2
	cfg.LongFrac = 0.2
	cfg.LongDocTokens = 30_000
	cfg.LongDocMax = 80_000
	return cfg
}

// TestKindResolveDerivesCapability checks the capability sheet is read off
// the built artifacts, including the engine's KV-sharding envelope.
func TestKindResolveDerivesCapability(t *testing.T) {
	lk, ck := loongKind(t), cheapKind(t)
	if err := lk.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Resolve(); err != nil {
		t.Fatal(err)
	}
	if lk.Nodes != 1 || lk.GPUs != 4 || lk.CostUnits != 4 {
		t.Fatalf("loong sheet: %+v", lk.Capability())
	}
	if ck.Nodes != 1 || ck.GPUs != 1 || ck.CostUnits != 1 {
		t.Fatalf("cheap sheet: %+v", ck.Capability())
	}
	// The ESP engine reports the whole pool as its envelope; the
	// continuous-batching engine is bounded by its single instance.
	if lk.MaxContext != lk.KVCapacity {
		t.Fatalf("loong MaxContext %d != KVCapacity %d", lk.MaxContext, lk.KVCapacity)
	}
	if ck.MaxContext != ck.KVCapacity {
		t.Fatalf("cheap MaxContext %d != KVCapacity %d (one instance is the whole pool)", ck.MaxContext, ck.KVCapacity)
	}
	if lk.MaxContext <= ck.MaxContext {
		t.Fatalf("loong envelope %d not above cheap %d", lk.MaxContext, ck.MaxContext)
	}
	if lk.PrefillRate <= ck.PrefillRate {
		t.Fatalf("prefill rates: loong %v <= cheap %v", lk.PrefillRate, ck.PrefillRate)
	}
}

// TestHeteroDeterminism is the -mix reproducibility property: a
// heterogeneous closed-loop run under capability routing is bit-identical
// across repetitions, for several seeds.
func TestHeteroDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		scripts := workload.SessionScripts(mixedWorkload(40), seed)
		run := func() *fleet.Result {
			lk, ck := loongKind(t), cheapKind(t)
			res, err := fleet.RunSessions(scripts, fleet.Config{
				Groups:   []fleet.ReplicaGroup{{Kind: lk, Count: 1}, {Kind: ck, Count: 3}},
				SLOKind:  lk,
				Policy:   fleet.NewCapabilityAffinity(),
				SLOScale: 5,
			}, true)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Records, b.Records) {
			t.Fatalf("seed %d: records differ between identical runs", seed)
		}
		if !reflect.DeepEqual(a.Replicas, b.Replicas) {
			t.Fatalf("seed %d: replica stats differ", seed)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Fatalf("seed %d: scale events differ", seed)
		}
		if a.CostUnitSeconds != b.CostUnitSeconds {
			t.Fatalf("seed %d: cost-unit seconds differ", seed)
		}
	}
}

// TestHeteroCompletesAndRoutesByCapability: long prompts land on the
// long-context kind, chat spreads over the cheap kind, and every request
// completes with its trace-specified lengths.
func TestHeteroCompletesAndRoutesByCapability(t *testing.T) {
	lk, ck := loongKind(t), cheapKind(t)
	scripts := workload.SessionScripts(mixedWorkload(60), 42)
	res, err := fleet.RunSessions(scripts, fleet.Config{
		Groups:   []fleet.ReplicaGroup{{Kind: lk, Count: 1}, {Kind: ck, Count: 3}},
		SLOKind:  lk,
		Policy:   fleet.NewCapabilityAffinity(),
		SLOScale: 5,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != workload.NumRequests(scripts) {
		t.Fatalf("%d of %d completed", len(res.Records), workload.NumRequests(scripts))
	}
	if res.Replicas[0].Kind != "loong" || res.Replicas[1].Kind != "cheap" {
		t.Fatalf("replica kinds: %q, %q", res.Replicas[0].Kind, res.Replicas[1].Kind)
	}
	// Every prompt beyond the cheap kind's comfortable envelope must have
	// been routed to the loong replica.
	comfort := int(fleet.DefaultCapabilityHeadroom * float64(ck.MaxContext))
	longReqs := 0
	for i, tr := range res.Trace {
		if tr.InputLen > comfort {
			longReqs++
			_ = i
		}
	}
	if longReqs == 0 {
		t.Fatal("workload produced no over-envelope prompts; test is vacuous")
	}
	// The loong replica's input tokens must dominate the long share: no
	// over-envelope prompt fits elsewhere, so its stats carry them all.
	var longTokens int64
	for _, tr := range res.Trace {
		if tr.InputLen > comfort {
			longTokens += int64(tr.InputLen)
		}
	}
	if res.Replicas[0].InputTokens < longTokens {
		t.Fatalf("loong replica saw %d input tokens, long share alone is %d", res.Replicas[0].InputTokens, longTokens)
	}
	// Chat must not have dogpiled: every cheap replica served something.
	for i, rs := range res.Replicas[1:] {
		if rs.Requests == 0 {
			t.Errorf("cheap replica %d served nothing", i+1)
		}
	}
}

// TestStreamMetricsEquivalence: the StreamMetrics flag must not change any
// metric the run reports — only whether records are retained.
func TestStreamMetricsEquivalence(t *testing.T) {
	trace := sessionTrace()
	full, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(3), Policy: fleet.NewPrefixAffinity()})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := fleet.Run(trace, fleet.Config{Groups: vllmFleet(3), Policy: fleet.NewPrefixAffinity(), StreamMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Records != nil {
		t.Fatalf("streamed run retained %d records", len(streamed.Records))
	}
	if streamed.Acc == nil || streamed.Acc.N() != len(full.Records) {
		t.Fatal("streamed run has no (or short) accumulator")
	}
	// This trace is under the accumulator's exact-quantile limit, so the
	// summaries must agree exactly, as must goodput at any size.
	if got, want := streamed.Summary(), metrics.Summarize(full.Records); got != want {
		t.Fatalf("summaries differ:\nstreamed %+v\nfull     %+v", got, want)
	}
	if got, want := streamed.Goodput(), metrics.Goodput(full.Records); got != want {
		t.Fatalf("goodput differs: %v vs %v", got, want)
	}
	if streamed.GoodputPerCostUnit() != full.GoodputPerCostUnit() {
		t.Fatal("cost-normalized goodput differs under streaming")
	}

	// Session-driven streaming runs must not rebuild the O(requests)
	// footprint through Result.Trace either.
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 12
	scripts := workload.SessionScripts(cfg, 9)
	sres, err := fleet.RunSessions(scripts, fleet.Config{Groups: vllmFleet(2), StreamMetrics: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Trace != nil {
		t.Fatalf("streamed session run retained a %d-entry trace", len(sres.Trace))
	}
	if sres.Acc == nil || sres.Acc.N() != workload.NumRequests(scripts) {
		t.Fatal("streamed session run lost records")
	}
}

// TestParseMix covers the CLI composition parser and its error messages.
func TestParseMix(t *testing.T) {
	lk, ck := loongKind(t), cheapKind(t)
	known := []*fleet.ReplicaKind{lk, ck}

	groups, err := fleet.ParseMix("loong:2,cheap:3", known)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Kind != lk || groups[0].Count != 2 || groups[1].Kind != ck || groups[1].Count != 3 {
		t.Fatalf("groups = %+v", groups)
	}
	if groups, err = fleet.ParseMix("cheap", known); err != nil || groups[0].Count != 1 {
		t.Fatalf("bare kind: %+v, %v", groups, err)
	}
	for _, bad := range []string{"", "nope:1", "loong:0", "loong:x", "loong:-2"} {
		if _, err := fleet.ParseMix(bad, known); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	// Unknown-kind errors must name the known kinds, like -cache errors.
	_, err = fleet.ParseMix("nope:1", known)
	if err == nil || !strings.Contains(err.Error(), "loong") || !strings.Contains(err.Error(), "cheap") {
		t.Fatalf("error %v does not list known kinds", err)
	}
}

// TestGatewayGroupsValidation covers the composition constructor errors.
func TestGatewayGroupsValidation(t *testing.T) {
	trace := workload.PoissonTrace(workload.ShareGPT(), 5, 5, 1)
	if _, err := fleet.Run(trace, fleet.Config{}); err == nil {
		t.Error("empty composition accepted")
	}
	if _, err := fleet.Run(trace, fleet.Config{Groups: []fleet.ReplicaGroup{{Kind: nil, Count: 1}}}); err == nil {
		t.Error("nil kind accepted")
	}
	lk := loongKind(t)
	if _, err := fleet.Run(trace, fleet.Config{Groups: []fleet.ReplicaGroup{{Kind: lk, Count: 0}}}); err == nil {
		t.Error("zero-replica composition accepted")
	}
}
