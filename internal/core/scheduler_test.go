package core

import (
	"slices"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// newEngineForUnit builds an initialized engine on a fresh simulated
// cluster without running a trace, for white-box scheduler tests.
func newEngineForUnit(t *testing.T) *Engine {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2, Options{})
	env := &serving.Env{
		Sim:      simevent.New(),
		Cluster:  c,
		CM:       costmodel.New(m, hw),
		Pool:     c.NewPool(),
		Complete: func(r *serving.Request) {},
	}
	if err := eng.Init(env); err != nil {
		t.Fatal(err)
	}
	return eng
}

func req(id int, in, out int) *serving.Request {
	return &serving.Request{ID: kvcache.RequestID(id), InputLen: in, OutputLen: out}
}

// decodeGroup builds an idle decoding group over insts whose i-th request
// is mastered on masters[i] (unmastered past the end of masters).
func decodeGroup(e *Engine, id int, insts []kvcache.InstanceID, reqs []*serving.Request, masters ...kvcache.InstanceID) *group {
	g := &group{id: id, phase: phaseDecode, instances: insts, mastered: make([]int, len(e.byInst))}
	for i, r := range reqs {
		m := noMaster
		if i < len(masters) {
			m = masters[i]
		}
		g.addReq(r, m)
	}
	return g
}

func TestDispatchFCFSAndMemoryGate(t *testing.T) {
	e := newEngineForUnit(t)
	e.pending = []*serving.Request{req(1, 100, 10), req(2, 1_000_000, 10), req(3, 50, 5)}
	k := e.dispatch(500_000, 4)
	// Head fits, the million-token request does not; strict FCFS stops
	// there rather than skipping ahead.
	if k != 1 {
		t.Fatalf("dispatch admitted %d of %v, want the head only", k, ids(e.pending))
	}
	// Dispatch only peeks: the queue changes when a launch commits.
	if got := ids(e.pending); !slices.Equal(got, []kvcache.RequestID{1, 2, 3}) {
		t.Fatalf("pending after dispatch = %v", got)
	}
	e.commitDispatch(k, nil)
	if got := ids(e.pending); !slices.Equal(got, []kvcache.RequestID{2, 3}) {
		t.Fatalf("pending after commit = %v", got)
	}
}

func ids(rs []*serving.Request) []kvcache.RequestID {
	out := make([]kvcache.RequestID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestDispatchTippingPointStopsBatch(t *testing.T) {
	e := newEngineForUnit(t)
	// Many mid-size requests: the tipping point must cut the batch well
	// before maxDispatch.
	for i := 0; i < maxDispatch; i++ {
		e.pending = append(e.pending, req(i+1, 5_000, 10))
	}
	k := e.dispatch(1<<30, 4)
	if k == 0 || k >= maxDispatch {
		t.Fatalf("tipping point did not bound the batch: %d", k)
	}
	if len(e.pending) != maxDispatch {
		t.Fatalf("dispatch changed the queue: %d requests pending, want %d", len(e.pending), maxDispatch)
	}
}

func TestDPBatchesSplitsLongFromShort(t *testing.T) {
	e := newEngineForUnit(t)
	rp := []*serving.Request{req(1, 200_000, 10), req(2, 300, 10), req(3, 280, 10), req(4, 250, 10)}
	insts := []kvcache.InstanceID{0, 1, 2, 3}
	plans, ok := e.dpBatches(rp, insts)
	if !ok {
		t.Fatal("dp infeasible")
	}
	total := 0
	seen := map[kvcache.InstanceID]bool{}
	for _, p := range plans {
		total += len(p.reqs)
		if len(p.reqs) == 0 || len(p.insts) == 0 {
			t.Fatalf("degenerate plan %+v", p)
		}
		for _, id := range p.insts {
			if seen[id] {
				t.Fatalf("instance %d appears in two batches", id)
			}
			seen[id] = true
		}
	}
	if total != 4 {
		t.Fatalf("plans cover %d of 4 requests", total)
	}
	// The long request should get strictly more instances than any short
	// one shares: find its batch.
	for _, p := range plans {
		hasLong := false
		for _, r := range p.reqs {
			if r.ID == 1 {
				hasLong = true
			}
		}
		if hasLong && len(p.reqs) > 1 {
			// Long batched with shorts is allowed only if it got several
			// instances anyway; typical plans isolate it.
			if len(p.insts) < 2 {
				t.Fatalf("200K request crammed with shorts on %d instance", len(p.insts))
			}
		}
	}
}

func TestDPBatchesRespectsMemory(t *testing.T) {
	e := newEngineForUnit(t)
	// Occupy most of instance 0 so only a contiguous segment with enough
	// free slots can host the batch.
	if err := e.env.Pool.AllocAt(99, 0, 230_000); err != nil {
		t.Fatal(err)
	}
	rp := []*serving.Request{req(1, 200_000, 10)}
	plans, ok := e.dpBatches(rp, []kvcache.InstanceID{0, 1, 2, 3})
	if !ok {
		t.Fatal("dp infeasible despite free instances")
	}
	for _, p := range plans {
		free := 0
		for _, id := range p.insts {
			free += e.env.Pool.Pool(id).Free()
		}
		if free < 200_001 {
			t.Fatalf("plan memory short: %d free for 200K request", free)
		}
	}
}

func TestPlanBatchesDropsInfeasibleTail(t *testing.T) {
	e := newEngineForUnit(t)
	// Two cluster-filling requests cannot both run; the later arrival is
	// dropped back to pending.
	a := req(1, 500_000, 10)
	a.Arrival = 1
	b := req(2, 500_000, 10)
	b.Arrival = 2
	plans, dropped := e.planBatches([]*serving.Request{a, b}, []kvcache.InstanceID{0, 1, 2, 3})
	if len(plans) != 1 || len(dropped) != 1 {
		t.Fatalf("plans=%d dropped=%d", len(plans), len(dropped))
	}
	if dropped[0].ID != 2 {
		t.Fatalf("dropped %d, want the later arrival", dropped[0].ID)
	}
}

func TestChooseRetentionMinimalSubset(t *testing.T) {
	e := newEngineForUnit(t)
	insts := []kvcache.InstanceID{0, 1, 2, 3}
	// A small batch fits one instance.
	small := []*serving.Request{req(1, 1_000, 10)}
	if got := e.chooseRetention(small, insts); len(got) != 1 {
		t.Fatalf("small batch retained on %d instances", len(got))
	}
	// A 400K batch needs at least two TP=2 instances (233K each).
	big := []*serving.Request{req(2, 400_000, 10)}
	if got := e.chooseRetention(big, insts); len(got) != 2 {
		t.Fatalf("400K batch retained on %d instances, want 2", len(got))
	}
}

func TestRebalanceMastersConcentratesAndSpreads(t *testing.T) {
	e := newEngineForUnit(t)
	var reqs []*serving.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, req(i+1, 100, 50))
	}
	g := decodeGroup(e, 1, []kvcache.InstanceID{0, 1, 2}, reqs)
	e.rebalanceMasters(g, 1)
	if g.distinct != 1 {
		t.Fatalf("concentration failed: %d masters", g.distinct)
	}
	e.rebalanceMasters(g, 3)
	if g.distinct != 3 {
		t.Fatalf("spread failed: %d masters", g.distinct)
	}
	// Clamps beyond group size.
	e.rebalanceMasters(g, 99)
	if g.distinct != 3 {
		t.Fatalf("clamp failed: %d masters", g.distinct)
	}
}

func TestEvacuateShrinksGroup(t *testing.T) {
	e := newEngineForUnit(t)
	// Build a decode group over instances 0 and 1 with KV split across
	// both.
	r := req(1, 2_000, 50)
	r.Phase = serving.Decoding
	if err := e.env.Pool.AllocAt(r.ID, 0, 1_200); err != nil {
		t.Fatal(err)
	}
	if err := e.env.Pool.AllocAt(r.ID, 1, 800); err != nil {
		t.Fatal(err)
	}
	g := decodeGroup(e, 1, []kvcache.InstanceID{0, 1}, []*serving.Request{r}, 1)
	e.addGroup(g)
	e.byInst[0] = g
	e.byInst[1] = g

	d, ok := e.evacuate(1)
	if !ok {
		t.Fatal("evacuation refused")
	}
	if d <= 0 {
		t.Fatal("evacuation charged no migration time")
	}
	if e.byInst[1] != nil {
		t.Fatal("instance 1 still owned after evacuation")
	}
	if got := e.env.Pool.HeldOn(r.ID, 0); got != 2_000 {
		t.Fatalf("KV on instance 0 = %d, want 2000", got)
	}
	if g.masters[0] != 0 || g.mastered[1] != 0 || g.distinct != 1 {
		t.Fatalf("master still on evacuated instance: %v", g.masters)
	}
	if err := e.env.Pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvacuateSingleInstanceGroupMerges(t *testing.T) {
	e := newEngineForUnit(t)
	mk := func(gid int, inst kvcache.InstanceID, rid int, tokens int) *group {
		r := req(rid, tokens, 50)
		r.Phase = serving.Decoding
		if err := e.env.Pool.AllocAt(r.ID, inst, tokens); err != nil {
			t.Fatal(err)
		}
		g := decodeGroup(e, gid, []kvcache.InstanceID{inst}, []*serving.Request{r}, inst)
		e.addGroup(g)
		e.byInst[inst] = g
		return g
	}
	mk(1, 0, 1, 5_000)
	g2 := mk(2, 1, 2, 3_000)

	if _, ok := e.evacuate(0); !ok {
		t.Fatal("merge evacuation refused")
	}
	if len(e.groupList) != 1 {
		t.Fatalf("groups after merge = %d", len(e.groupList))
	}
	if len(g2.reqs) != 2 {
		t.Fatalf("target group has %d requests, want 2", len(g2.reqs))
	}
	if got := e.env.Pool.HeldOn(1, 1); got != 5_000 || e.env.Pool.HeldBy(1) != 5_000 {
		t.Fatalf("merged KV placement wrong: %d on instance 1 of %d held", got, e.env.Pool.HeldBy(1))
	}
	if err := e.env.Pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvacuateRefusesRunningGroup(t *testing.T) {
	e := newEngineForUnit(t)
	r := req(1, 100, 10)
	g := decodeGroup(e, 1, []kvcache.InstanceID{0}, []*serving.Request{r}, 0)
	g.running = true
	e.addGroup(g)
	e.byInst[0] = g
	if _, ok := e.evacuate(0); ok {
		t.Fatal("evacuated a running group")
	}
}

func TestDesiredMastersThresholding(t *testing.T) {
	e := newEngineForUnit(t)
	th := e.sib.DecodeBSThreshold
	g := &group{instances: []kvcache.InstanceID{0, 1, 2, 3}}
	for i := 0; i < th; i++ {
		g.reqs = append(g.reqs, req(i+1, 10, 10))
	}
	if d := e.desiredMasters(g); d != 1 {
		t.Fatalf("at threshold: desired = %d, want 1", d)
	}
	g.reqs = append(g.reqs, req(999, 10, 10))
	if d := e.desiredMasters(g); d != 2 {
		t.Fatalf("past threshold: desired = %d, want 2", d)
	}
}

func TestMergeGainPrefersAmortization(t *testing.T) {
	e := newEngineForUnit(t)
	mk := func(gid int, inst kvcache.InstanceID, n int) *group {
		var reqs []*serving.Request
		for i := 0; i < n; i++ {
			r := req(gid*1000+i, 200, 100)
			r.Generated = 5
			reqs = append(reqs, r)
		}
		return decodeGroup(e, gid, []kvcache.InstanceID{inst}, reqs)
	}
	a, b := mk(1, 0, 4), mk(2, 1, 4)
	// The gain computation must at least be finite and symmetric-ish.
	g1 := e.mergeGain(a, b, 2)
	g2 := e.mergeGain(b, a, 2)
	if g1 != g2 {
		t.Fatalf("merge gain asymmetric: %v vs %v", g1, g2)
	}
}

func TestAgedOut(t *testing.T) {
	e := newEngineForUnit(t)
	r := req(1, 100, 10)
	r.Arrival = 0
	if e.agedOut([]*serving.Request{r}) {
		t.Fatal("fresh request aged out at t=0")
	}
	e.env.Sim.RunUntil(simevent.Time(simevent.Second))
	if !e.agedOut([]*serving.Request{r}) {
		t.Fatal("1s-old request not aged out")
	}
}

func TestSubtractAndInstIn(t *testing.T) {
	a := []kvcache.InstanceID{0, 1, 2}
	b := []kvcache.InstanceID{1}
	got := subtract(a, b)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("subtract = %v", got)
	}
	if !instIn(a, 2) || instIn(b, 0) {
		t.Fatal("instIn wrong")
	}
}
