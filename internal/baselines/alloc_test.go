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

// steadyBatch builds a vLLM engine with decode fusion as given, admits
// eight long-output requests and runs until they all decode.
func steadyBatch(t *testing.T, unfused bool) (*simevent.Sim, *serving.Env, *ContBatch, []*serving.Request) {
	t.Helper()
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
	eng.Unfused = unfused
	if err := eng.Init(env); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*serving.Request, 8)
	for i := range reqs {
		r := &serving.Request{ID: kvcache.RequestID(i + 1), InputLen: 500 + 100*i, OutputLen: 5_000}
		reqs[i] = r
		sim.Stage(0, func() { eng.Arrive(r) })
	}
	for len(eng.running) < len(reqs) && sim.Step() {
	}
	if len(eng.running) != len(reqs) || len(eng.waiting) != 0 {
		t.Fatalf("batch not steady: %d running, %d waiting", len(eng.running), len(eng.waiting))
	}
	return sim, env, eng, reqs
}

// checkHeld verifies that every request holds exactly its resident KV and
// that the pool's accounting is consistent.
func checkHeld(t *testing.T, env *serving.Env, reqs []*serving.Request) {
	t.Helper()
	for _, r := range reqs {
		if held := env.Pool.HeldBy(r.ID); held != r.KVNow() {
			t.Fatalf("request %d holds %d KV tokens, want %d", r.ID, held, r.KVNow())
		}
	}
	if err := env.Pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestContBatchSteadyDecodeAllocatesNothing pins the cost of one unfused
// vLLM decode iteration once its batch is steady: each event runs
// decodeDone → finishAndContinue → runDecode with one KV token per request
// through the request's placement handle, and must not allocate.
func TestContBatchSteadyDecodeAllocatesNothing(t *testing.T) {
	sim, env, eng, reqs := steadyBatch(t, true)
	for reqs[0].Generated < 10 && sim.Step() {
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
	if reqs[0].Generated != before+runs+1 || eng.fusion != (fusionStats{}) {
		t.Fatalf("measured steps were not plain decode iterations: generated %d -> %d, fusion %+v",
			before, reqs[0].Generated, eng.fusion)
	}
	checkHeld(t, env, reqs)
}

// TestContBatchFusedWindowAllocatesNothing is the fused twin: once the
// steady batch runs a fused window, a cycle of Load materializing one
// elapsed boundary, a fission, the re-armed in-flight iteration firing as
// a normal decode event and the window it relaunches allocates nothing.
func TestContBatchFusedWindowAllocatesNothing(t *testing.T) {
	sim, env, eng, reqs := steadyBatch(t, false)
	if eng.fuseK == 0 {
		t.Fatal("no fused window once the batch is steady")
	}
	before, generated := eng.fusion, reqs[0].Generated
	const runs = 100
	if avg := testing.AllocsPerRun(runs, func() {
		sim.AdvanceTo(eng.fuseNext + 1) // one boundary has elapsed
		eng.Load()
		eng.fissionFused()
		if !sim.Step() || eng.fuseK == 0 {
			t.Fatal("no window relaunched after the in-flight iteration")
		}
	}); avg != 0 {
		t.Fatalf("Load, fission and window relaunch allocate %.2f objects per cycle, want 0", avg)
	}
	// AllocsPerRun makes one warm-up call before the measured runs. Each
	// cycle materializes one boundary through Load and fires one plain
	// iteration.
	after := eng.fusion
	const cycles = runs + 1
	if w, f, i := after.windows-before.windows, after.fissions-before.fissions, after.iters-before.iters; w != cycles || f != cycles || i != cycles {
		t.Fatalf("measured %d launches, %d fissions and %d fused iterations, want %d each", w, f, i, cycles)
	}
	if reqs[0].Generated != generated+2*cycles {
		t.Fatalf("generated %d -> %d over %d cycles, want two tokens a cycle", generated, reqs[0].Generated, cycles)
	}
	eng.Load()
	checkHeld(t, env, reqs)
}
