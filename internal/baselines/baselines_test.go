package baselines

import (
	"strings"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

func runOn(t *testing.T, eng serving.Engine, tp int, trace []workload.TimedRequest) ([]metrics.Record, error) {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, tp)
	if err != nil {
		t.Fatal(err)
	}
	return serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
}

func checkRecords(t *testing.T, recs []metrics.Record, want int) {
	t.Helper()
	if len(recs) != want {
		t.Fatalf("completed %d of %d requests", len(recs), want)
	}
	for _, r := range recs {
		if r.FirstToken < r.Arrival {
			t.Fatalf("request %d: first token %v before arrival %v", r.ID, r.FirstToken, r.Arrival)
		}
		if r.Finish < r.FirstToken {
			t.Fatalf("request %d: finish %v before first token %v", r.ID, r.Finish, r.FirstToken)
		}
	}
}

func TestVLLMServesShareGPT(t *testing.T) {
	trace := workload.PoissonTrace(workload.ShareGPT(), 4.0, 60, 1)
	recs, err := runOn(t, NewVLLM(8), 8, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 60)
	s := metrics.Summarize(recs)
	// Sanity: a lightly loaded vLLM should be well within 25x SLO.
	if s.SLOAttainment < 0.9 {
		t.Fatalf("light-load SLO attainment %.2f", s.SLOAttainment)
	}
}

func TestVLLMServesLongContext(t *testing.T) {
	trace := workload.PoissonTrace(workload.LEval(), 0.05, 8, 2)
	recs, err := runOn(t, NewVLLM(8), 8, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 8)
}

func TestVLLMInterferenceShape(t *testing.T) {
	// With long prefills mixed in, decode (output) latency must degrade
	// versus a pure-short workload at the same rate — the head-of-line
	// interference LoongServe removes.
	shortOnly := workload.PoissonTrace(workload.ShareGPT(), 0.5, 40, 3)
	mixed := workload.PoissonTrace(workload.Mixed(), 0.5, 40, 3)
	rShort, err := runOn(t, NewVLLM(8), 8, shortOnly)
	if err != nil {
		t.Fatal(err)
	}
	rMixed, err := runOn(t, NewVLLM(8), 8, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Summarize(rMixed).MeanOutput <= metrics.Summarize(rShort).MeanOutput {
		t.Fatal("long prefills did not inflate vLLM output latency")
	}
}

func TestVLLMPreemptionRecovers(t *testing.T) {
	// A tiny pool forces preemption: shrink capacity by using long outputs
	// at a high rate. All requests must still complete.
	m := model.LWM1MText()
	hw := cluster.A800()
	hw.ActReserveBytes = 38_600_000_000 // squeeze pool to ~21K tokens
	c, err := cluster.New(m, hw, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.PoissonTrace(workload.ShareGPT(), 20.0, 60, 4)
	recs, err := serving.Run(NewVLLM(8), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 60)
}

func TestVLLMOOMOnImpossibleRequest(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 2, 2) // one tiny TP=2 instance: 233K tokens
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 400_000, OutputLen: 10}, Arrival: 0}}
	_, err = serving.Run(NewVLLM(2), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if _, ok := err.(*serving.ErrOOM); !ok {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

func TestSplitFuseServesMixed(t *testing.T) {
	eng := NewSplitFuse(8, 0)
	eng.SetChunkFromPD(18_000, 180)
	trace := workload.PoissonTrace(workload.LEval(), 0.05, 8, 5)
	recs, err := runOn(t, eng, 8, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 8)
}

func TestSplitFuseChunkFromPD(t *testing.T) {
	e := NewSplitFuse(8, 0)
	e.SetChunkFromPD(320, 220) // ShareGPT-ish: P:D ≈ 1.5 -> min clamp
	if e.ChunkSize != 128 {
		t.Fatalf("chunk %d, want clamped 128", e.ChunkSize)
	}
	e.SetChunkFromPD(110_000, 120) // LV-Eval-ish: huge P:D -> max clamp
	if e.ChunkSize != 8192 {
		t.Fatalf("chunk %d, want clamped 8192", e.ChunkSize)
	}
	e.SetChunkFromPD(18_000, 180) // L-Eval: P:D = 100 -> 6400
	if e.ChunkSize != 6400 {
		t.Fatalf("chunk %d, want 6400", e.ChunkSize)
	}
}

func TestSplitFuseProtectsDecodeVsVLLMNearSaturation(t *testing.T) {
	// SplitFuse's whole point: near saturation, decode steps are not
	// stalled behind whole-prompt prefill iterations, so output latency
	// beats vLLM — the ShareGPT column of Fig 10. (On L-Eval/LV-Eval the
	// protection collapses because the P:D ratio is high — §7.2 — which
	// TestSplitFuseHighPDRatioInterference checks.)
	trace := workload.PoissonTrace(workload.ShareGPT(), 25.0, 250, 6)
	sf := NewSplitFuse(8, 0)
	sf.SetChunkFromPD(320, 220)
	rSF, err := runOn(t, sf, 8, trace)
	if err != nil {
		t.Fatal(err)
	}
	rV, err := runOn(t, NewVLLM(8), 8, trace)
	if err != nil {
		t.Fatal(err)
	}
	outSF := metrics.Summarize(rSF).MeanOutput
	outV := metrics.Summarize(rV).MeanOutput
	if outSF >= outV {
		t.Fatalf("SplitFuse output latency %.4f should beat vLLM %.4f near saturation", outSF, outV)
	}
}

func TestSplitFuseHighPDRatioInterference(t *testing.T) {
	// §7.2: with a high prefill:decode ratio (L-Eval), chunked prefill
	// cannot protect decoding — nearly every decode step drags a chunk —
	// and decomposing the prompt makes the prefill phase slower than
	// one-shot prefill.
	trace := workload.PoissonTrace(workload.LEval(), 0.12, 20, 6)
	sf := NewSplitFuse(8, 2048)
	rSF, err := runOn(t, sf, 8, trace)
	if err != nil {
		t.Fatal(err)
	}
	rV, err := runOn(t, NewVLLM(8), 8, trace)
	if err != nil {
		t.Fatal(err)
	}
	inSF := metrics.Summarize(rSF).MeanInput
	inV := metrics.Summarize(rV).MeanInput
	if inSF <= inV {
		t.Fatalf("SplitFuse input latency %.5f should exceed vLLM %.5f (chunking inefficiency)", inSF, inV)
	}
}

func TestDistServeServesShareGPT(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 4) // two TP=4 instances: P and D pools
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.PoissonTrace(workload.ShareGPT(), 2.0, 40, 7)
	recs, err := serving.Run(NewDistServe(4), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 40)
}

// Fig 10 anchor: DistServe OOMs on LV-Eval because a phase pool (4 GPUs)
// cannot hold the longest requests.
func TestDistServeOOMOnLVEval(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 497_300, OutputLen: 64}, Arrival: 0}}
	_, err = serving.Run(NewDistServe(4), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	oom, ok := err.(*serving.ErrOOM)
	if !ok {
		t.Fatalf("want ErrOOM on 497.3K-token request, got %v", err)
	}
	if oom.Limit >= 497_300 {
		t.Fatalf("OOM limit %d should be below the request size", oom.Limit)
	}
}

func TestDistServeMigrationDelaysFirstDecode(t *testing.T) {
	// A single long request: its decode phase cannot start until the KV
	// migration completes, so its output latency must exceed the pure
	// decode time by at least the migration duration amortized.
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cm := costmodel.New(m, hw)
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 200_000, OutputLen: 20}, Arrival: 0}}
	recs, err := serving.Run(NewDistServe(4), c, cm, trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 1)
	mig := cm.ReactiveMigrationTime(200_001, c.LinkBetween(0, 1))
	if recs[0].OutputLatency() < mig {
		t.Fatalf("output latency %v should include migration %v", recs[0].OutputLatency(), mig)
	}
}

func TestStaticHybridServesMixed(t *testing.T) {
	trace := workload.PoissonTrace(workload.Mixed(), 0.2, 20, 8)
	recs, err := runOn(t, NewStaticHybrid(4, 2), 2, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 20)
}

func TestStaticHybridUsesUnifiedMemory(t *testing.T) {
	// A 400K request exceeds any single TP=2 instance (233K) but fits the
	// unified pool of the fixed SP=4 group.
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 400_000, OutputLen: 16}, Arrival: 0}}
	recs, err := runOn(t, NewStaticHybrid(4, 2), 2, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 1)
}

func TestReplicatedServesAndBalances(t *testing.T) {
	trace := workload.PoissonTrace(workload.ShareGPT(), 8.0, 80, 9)
	recs, err := runOn(t, NewReplicated(2), 2, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 80)
}

func TestReplicatedOOMOnLongRequest(t *testing.T) {
	// The replication ablation cannot serve requests beyond one replica's
	// pool — the reason Fig 12 caps lengths at 200K.
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 300_000, OutputLen: 16}, Arrival: 0}}
	_, err := runOn(t, NewReplicated(2), 2, trace)
	if _, ok := err.(*serving.ErrOOM); !ok {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

func TestContBatchInitValidation(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, _ := cluster.New(m, hw, 1, 8, 2)
	eng := NewVLLM(8) // wants TP=8 but cluster has TP=2 instances
	err := eng.Init(&serving.Env{Cluster: c, Pool: c.NewPool()})
	if err == nil {
		t.Fatal("TP mismatch accepted")
	}
}

func TestDistServeInitValidation(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, _ := cluster.New(m, hw, 1, 8, 2) // 4 instances, not 2
	err := NewDistServe(2).Init(&serving.Env{Cluster: c, Pool: c.NewPool()})
	if err == nil {
		t.Fatal("wrong instance count accepted")
	}
}

func TestSplitFuseInitValidation(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, _ := cluster.New(m, hw, 1, 8, 2)
	err := NewSplitFuse(2, 512).Init(&serving.Env{Cluster: c, Pool: c.NewPool()})
	if err == nil {
		t.Fatal("multi-instance cluster accepted by SplitFuse")
	}
}

// TestContBatchAdmitsWatermarkBandHead is the head-of-line livelock
// regression: a request within one admission watermark of pool capacity
// (fits the pool outright, so Arrive accepts it) arriving at an EMPTY
// engine must be admitted and served. Before the fix, admission demanded
// watermark headroom even with nothing running, so the request waited
// forever on completions that could never come and the run ended
// incomplete.
func TestContBatchAdmitsWatermarkBandHead(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	capTokens, err := cluster.KVCapacityTokens(m, hw, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the pool, inside the old watermark band (capacity/100).
	in := capTokens - capTokens/200 - 8
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: in, OutputLen: 4}}}
	c, err := cluster.New(m, hw, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := serving.Run(NewVLLM(1), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 1)
}

// TestContBatchWatermarkStillGuardsRunningBatch: the livelock fix must not
// disable the watermark when a batch IS running — a second near-capacity
// request queues behind the first instead of over-admitting.
func TestContBatchWatermarkStillGuardsRunningBatch(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	capTokens, err := cluster.KVCapacityTokens(m, hw, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := capTokens/2 - 16
	trace := []workload.TimedRequest{
		{Entry: workload.Entry{InputLen: half, OutputLen: 64}},
		{Entry: workload.Entry{InputLen: half, OutputLen: 64}},
	}
	c, err := cluster.New(m, hw, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := serving.Run(NewVLLM(1), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 2)
}

// TestEngineCapabilities: the capability envelopes engines report match
// their placement disciplines — one instance under locality, the whole
// group under spread.
func TestEngineCapabilities(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2) // four TP=2 instances
	if err != nil {
		t.Fatal(err)
	}
	newEnv := func() *serving.Env {
		return &serving.Env{Sim: simevent.New(), Cluster: c, CM: costmodel.New(m, hw), Pool: c.NewPool()}
	}
	perInstance := c.Instances[0].KVCapacity
	total := 0
	for _, inst := range c.Instances {
		total += inst.KVCapacity
	}

	c1, err := cluster.New(m, hw, 1, 2, 2) // one TP=2 instance
	if err != nil {
		t.Fatal(err)
	}
	local := NewVLLM(2)
	if err := local.Init(&serving.Env{Sim: simevent.New(), Cluster: c1, CM: costmodel.New(m, hw), Pool: c1.NewPool()}); err != nil {
		t.Fatal(err)
	}
	if got := local.Capability().MaxSeqTokens; got != perInstance {
		t.Fatalf("locality engine envelope %d, want one instance %d", got, perInstance)
	}

	spread := NewStaticHybrid(4, 2)
	if err := spread.Init(newEnv()); err != nil {
		t.Fatal(err)
	}
	if got := spread.Capability().MaxSeqTokens; got != total {
		t.Fatalf("spread engine envelope %d, want whole group %d", got, total)
	}
}

// The baselines index the KV pool by InstanceID, so like core they refuse
// a cluster whose IDs are not 0..n-1 in order, before any arrival could
// reach an instance the pool does not have.
func TestInitRejectsSparseInstanceIDs(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	for _, tc := range []struct {
		name string
		eng  serving.Engine
		tp   int
	}{
		{"vllm", NewVLLM(8), 8},
		{"statichybrid", NewStaticHybrid(4, 2), 2},
		{"replicated", NewReplicated(2), 2},
		{"splitfuse", NewSplitFuse(8, 512), 8},
		{"distserve", NewDistServe(4), 4},
	} {
		c, err := cluster.New(m, hw, 1, 8, tc.tp)
		if err != nil {
			t.Fatal(err)
		}
		last := c.Instances[len(c.Instances)-1]
		last.ID += 5
		_, err = serving.Run(tc.eng, c, costmodel.New(m, hw),
			workload.PoissonTrace(workload.ShareGPT(), 1, 1, 1), serving.DefaultRunConfig())
		if err == nil || !strings.Contains(err.Error(), "instance IDs must be 0..n-1") {
			t.Errorf("%s: sparse instance IDs: err %v", tc.name, err)
		}
	}
}
