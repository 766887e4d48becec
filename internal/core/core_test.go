package core

import (
	"testing"

	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// runLS runs LoongServe on a TP=2 x ESP=4 single-node cluster (the paper's
// single-node configuration) and returns records plus the engine for
// instrumentation checks.
func runLS(t *testing.T, opts Options, trace []workload.TimedRequest) ([]metrics.Record, *Engine) {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2, opts)
	recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	return recs, eng
}

func checkRecords(t *testing.T, recs []metrics.Record, want int) {
	t.Helper()
	if len(recs) != want {
		t.Fatalf("completed %d of %d requests", len(recs), want)
	}
	for _, r := range recs {
		if r.FirstToken < r.Arrival || r.Finish < r.FirstToken {
			t.Fatalf("request %d: broken timeline %v %v %v", r.ID, r.Arrival, r.FirstToken, r.Finish)
		}
	}
}

func TestServesShareGPT(t *testing.T) {
	trace := workload.PoissonTrace(workload.ShareGPT(), 5.0, 80, 1)
	recs, eng := runLS(t, Options{}, trace)
	checkRecords(t, recs, 80)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestServesLEval(t *testing.T) {
	trace := workload.PoissonTrace(workload.LEval(), 0.1, 16, 2)
	recs, eng := runLS(t, Options{}, trace)
	checkRecords(t, recs, 16)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	// Long-prompt batches must have triggered proactive scale-downs.
	if eng.ScaleDowns == 0 {
		t.Fatal("no proactive scale-downs on a long-context workload")
	}
}

func TestServesLVEvalIncludingDistServeOOMCase(t *testing.T) {
	// The 497.3K-token request that OOMs DistServe (Fig 10) is served fine
	// by the unified distributed KV pool.
	trace := []workload.TimedRequest{
		{Entry: workload.Entry{InputLen: 497_300, OutputLen: 64}, Arrival: 0},
		{Entry: workload.Entry{InputLen: 300_000, OutputLen: 32}, Arrival: 1e9},
	}
	recs, eng := runLS(t, Options{}, trace)
	checkRecords(t, recs, 2)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestServesMixed(t *testing.T) {
	trace := workload.PoissonTrace(workload.Mixed(), 0.3, 30, 3)
	recs, eng := runLS(t, Options{}, trace)
	checkRecords(t, recs, 30)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestOOMOnImpossibleRequest(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 1_000_000, OutputLen: 16}, Arrival: 0}}
	_, err = serving.Run(New(2, Options{}), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if _, ok := err.(*serving.ErrOOM); !ok {
		t.Fatalf("want ErrOOM beyond cluster capacity, got %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	trace := workload.PoissonTrace(workload.Mixed(), 0.5, 25, 4)
	a, _ := runLS(t, Options{}, trace)
	b, _ := runLS(t, Options{}, trace)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	am := map[int64]metrics.Record{}
	for _, r := range a {
		am[r.ID] = r
	}
	for _, r := range b {
		if am[r.ID] != r {
			t.Fatalf("request %d differs across identical runs", r.ID)
		}
	}
}

// Fig 13 shape: elastic scale-up fires under a decode-heavy high-rate
// workload (generation-heavy chat), and disabling it does not help — the
// mechanism's effect is directionally positive within simulation noise.
func TestScaleUpFiresAndHelps(t *testing.T) {
	trace := workload.PoissonTrace(workload.ShareGPTLong(), 30.0, 500, 5)
	withUp, engUp := runLS(t, Options{}, trace)
	without, _ := runLS(t, Options{DisableScaleUp: true}, trace)
	if len(engUp.ScaleUps) == 0 {
		t.Fatal("no elastic scale-ups under high-rate generation-heavy chat")
	}
	gUp := metrics.Goodput(withUp)
	gNo := metrics.Goodput(without)
	if gUp < 0.93*gNo {
		t.Fatalf("scale-up goodput %.3f should be >= ~disabled %.3f", gUp, gNo)
	}
}

// Phase separation: LoongServe's output latency beats vLLM's under a mixed
// workload with long prefills (the Fig 10 bottom row).
func TestOutputLatencyBeatsVLLMOnMixed(t *testing.T) {
	trace := workload.PoissonTrace(workload.Mixed(), 0.35, 40, 6)
	ls, eng := runLS(t, Options{}, trace)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}

	m := model.LWM1MText()
	hw := cluster.A800()
	cv, err := cluster.New(m, hw, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := serving.Run(baselines.NewVLLM(8), cv, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	outLS := metrics.Summarize(ls).MeanOutput
	outV := metrics.Summarize(vl).MeanOutput
	if outLS >= outV {
		t.Fatalf("LoongServe output latency %.4f should beat vLLM %.4f on Mixed", outLS, outV)
	}
}

func TestGreedyBatchingAblationWorks(t *testing.T) {
	trace := workload.PoissonTrace(workload.Mixed(), 0.3, 25, 7)
	recs, eng := runLS(t, Options{DisableDPBatching: true}, trace)
	checkRecords(t, recs, 25)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// DP batching should not be worse than greedy single-batch on a workload
// with diverse lengths (it can always express the greedy plan).
func TestDPBatchingNotWorseThanGreedy(t *testing.T) {
	trace := workload.PoissonTrace(workload.Mixed(), 0.6, 60, 8)
	dp, _ := runLS(t, Options{}, trace)
	greedy, _ := runLS(t, Options{DisableDPBatching: true}, trace)
	inDP := metrics.Summarize(dp).MeanInput
	inGreedy := metrics.Summarize(greedy).MeanInput
	if inDP > inGreedy*1.10 {
		t.Fatalf("DP input latency %.5f much worse than greedy %.5f", inDP, inGreedy)
	}
}

func TestBorrowingAblationWorks(t *testing.T) {
	trace := workload.PoissonTrace(workload.Mixed(), 0.4, 25, 9)
	recs, eng := runLS(t, Options{DisableBorrowing: true}, trace)
	checkRecords(t, recs, 25)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRequestLatencyNearIdeal(t *testing.T) {
	// One lone request must finish within a small factor of the unloaded
	// ideal (it gets the whole cluster).
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm := costmodel.New(m, hw)
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 100_000, OutputLen: 50}, Arrival: 0}}
	recs, err := serving.Run(New(2, Options{}), c, cm, trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 1)
	ideal := serving.IdealLatency(cm, 8, 100_000, 50)
	if e2e := recs[0].E2E(); e2e > 3*ideal {
		t.Fatalf("lone request e2e %v, ideal %v: too far off", e2e, ideal)
	}
}

func TestRecomputePreemptionRecovers(t *testing.T) {
	// Squeeze the pool to about 2K slots per TP=2 instance so decoding
	// preempts with scale-up and borrowing on, then verify every request
	// still completes and the pool drains.
	m := model.LWM1MText()
	hw := squeezedA800(m, 2_000)
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2, Options{})
	trace := workload.PoissonTrace(workload.ShareGPT(), 6.0, 60, 10)
	recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 60)
	if eng.Preemptions == 0 {
		t.Fatal("squeezed pool never preempted; the recompute path went untested")
	}
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestInitRejectsWrongTP(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = serving.Run(New(2, Options{}), c, costmodel.New(m, hw),
		workload.PoissonTrace(workload.ShareGPT(), 1, 1, 1), serving.DefaultRunConfig())
	if err == nil {
		t.Fatal("TP mismatch accepted")
	}
}

// The engine indexes per-instance state by InstanceID, so it refuses a
// cluster whose IDs are not 0..n-1 in order.
func TestInitRejectsSparseInstanceIDs(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Instances[3].ID = 7
	_, err = serving.Run(New(2, Options{}), c, costmodel.New(m, hw),
		workload.PoissonTrace(workload.ShareGPT(), 1, 1, 1), serving.DefaultRunConfig())
	if err == nil {
		t.Fatal("sparse instance IDs accepted")
	}
}

func TestMultiNodeESP8(t *testing.T) {
	// Fig 11 configuration: 16 GPUs over two nodes, ESP up to 8.
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2, Options{})
	trace := workload.PoissonTrace(workload.Mixed(), 0.5, 30, 11)
	recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, recs, 30)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestSoakMixedSustained is a longer integration run: 300 Mixed requests
// at a demanding rate must all complete with the pool fully drained and
// every elastic mechanism exercised at least once. Skipped under -short.
func TestSoakMixedSustained(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	trace := workload.PoissonTrace(workload.Mixed(), 0.6, 300, 99)
	recs, eng := runLS(t, Options{}, trace)
	checkRecords(t, recs, 300)
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	if eng.ScaleDowns == 0 {
		t.Error("no proactive scale-downs in 300 requests")
	}
	if len(eng.ScaleUps) == 0 {
		t.Error("no elastic scale-ups in 300 requests")
	}
	if eng.MaxDecodeBS < 2 {
		t.Errorf("max decode batch %d: batching never happened", eng.MaxDecodeBS)
	}
}
