package baselines

import (
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// TestContBatchSteadyDecodeAllocatesNothing pins the cost of one vLLM
// decode iteration once its batch is steady: each event runs decodeDone →
// finishAndContinue → runDecode with one KV token per request through the
// request's placement handle, and must not allocate.
func TestContBatchSteadyDecodeAllocatesNothing(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sim := simevent.New()
	env := &serving.Env{Sim: sim, Cluster: c, CM: costmodel.New(m, hw), Pool: c.NewPool(),
		Complete: func(*serving.Request) {}}
	eng := NewVLLM(8)
	if err := eng.Init(env); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*serving.Request, 8)
	for i := range reqs {
		r := &serving.Request{ID: kvcache.RequestID(i + 1), InputLen: 500 + 100*i, OutputLen: 5_000}
		reqs[i] = r
		sim.Stage(0, func() { eng.Arrive(r) })
	}
	for reqs[0].Generated < 10 && sim.Step() {
	}
	if len(eng.running) != len(reqs) || len(eng.waiting) != 0 {
		t.Fatalf("batch not steady: %d running, %d waiting", len(eng.running), len(eng.waiting))
	}
	before := reqs[0].Generated
	const runs = 100
	if avg := testing.AllocsPerRun(runs, func() {
		if !sim.Step() {
			t.Fatal("simulation drained mid-measurement")
		}
	}); avg != 0 {
		t.Fatalf("steady ContBatch decode iteration allocates %.2f objects, want 0", avg)
	}
	if reqs[0].Generated != before+runs+1 {
		t.Fatalf("measured steps were not plain decode iterations: generated %d -> %d", before, reqs[0].Generated)
	}
	for _, r := range reqs {
		if held := env.Pool.HeldBy(r.ID); held != r.KVNow() {
			t.Fatalf("request %d holds %d KV tokens, want %d", r.ID, held, r.KVNow())
		}
	}
	if err := env.Pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
