package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// requeueRef is the queue the golden behaviour pins after a dispatch of
// pending[:k] hands back the requests in back: those requests sorted by
// arrival with sort.Slice, then pending[k:]. The engine must reproduce it
// exactly, ties included.
func requeueRef(pending []*serving.Request, k int, back []*serving.Request) []*serving.Request {
	head := slices.Clone(back)
	sort.Slice(head, func(a, b int) bool { return head[a].Arrival < head[b].Arrival })
	return append(head, pending[k:]...)
}

func atMs(ms int64) simevent.Time { return simevent.Time(ms * int64(simevent.Millisecond)) }

// arrived returns a pending request that arrived at the given millisecond.
func arrived(id, in, out int, ms int64) *serving.Request {
	r := req(id, in, out)
	r.Arrival = atMs(ms)
	return r
}

// addDecodeGroup registers an idle decoding group on insts whose requests
// are all mastered on insts[0].
func addDecodeGroup(e *Engine, insts []kvcache.InstanceID, reqs ...*serving.Request) *group {
	masters := make([]kvcache.InstanceID, len(reqs))
	for i := range masters {
		masters[i] = insts[0]
	}
	g := decodeGroup(e, e.nextGID, insts, reqs, masters...)
	e.nextGID++
	e.addGroup(g)
	for _, id := range insts {
		e.byInst[id] = g
	}
	return g
}

// decoding returns a request that started decoding at the given
// millisecond with one token generated, so pausing its group for a
// prefill costs the whole prefill time (Eq 1).
func decoding(id int, ms int64) *serving.Request {
	r := arrived(id, 1_000, 10_000, ms)
	r.Phase = serving.Decoding
	r.FirstToken = atMs(ms)
	r.Generated = 1
	return r
}

// refusedPiggyback builds an engine 50 ms into a run whose only group
// decodes one fresh request on instance 0, beside idle instances 1-3, with
// waiting 2K-token prompts queued. Stalling the donor for their prefill
// costs far more than their short wait gains (Eqs 1-2), so every Eq 1-2
// attempt dispatches some of them and is refused.
func refusedPiggyback(t *testing.T) (*Engine, *group) {
	t.Helper()
	e := newEngineForUnit(t)
	e.env.Sim.AdvanceTo(atMs(50))
	donor := addDecodeGroup(e, []kvcache.InstanceID{0}, decoding(100, 40))
	for i := 0; i < 6; i++ {
		e.pending = append(e.pending, arrived(i+1, 2_000, 100, int64(10+i)))
	}
	if e.pickDonor() != donor {
		t.Fatal("the decoding group is not the Eq 1-2 donor")
	}
	grown := append(slices.Clone(donor.instances), e.idleInstances()...)
	if k := e.dispatch(e.freeOn(grown), len(grown)); k < 2 || len(grown) != 4 {
		t.Fatalf("an Eq 1-2 attempt would dispatch %d requests over %d instances", k, len(grown))
	}
	return e, donor
}

// TestRefusedPiggybackAllocatesNothing pins the cost of the common
// backlog step: an Eq 1-2 attempt with a waiting head that the gain check
// refuses. It dispatches over the donor-plus-idle instance set, builds the
// length vector and hands R_p back, all in engine-owned buffers, and leaves
// the queue as it was.
func TestRefusedPiggybackAllocatesNothing(t *testing.T) {
	e, donor := refusedPiggyback(t)
	want := slices.Clone(e.pending)
	if avg := testing.AllocsPerRun(100, func() {
		if e.piggybackRound(e.idleInstances()) {
			t.Fatal("piggyback launched")
		}
	}); avg != 0 {
		t.Fatalf("refused piggyback round allocates %.2f objects, want 0", avg)
	}
	if !slices.Equal(e.pending, want) || donor.running || e.Borrows != 0 {
		t.Fatalf("refused rounds changed the engine: pending %v, want %v", ids(e.pending), ids(want))
	}
}

// TestArriveOnWarmQueueAllocatesNothing pins Arrive behind a waiting
// queue: once the queue's backing array has room, an arrival and the
// scheduler pass it triggers (the donor is mid-iteration, the idle
// instances cannot fit the head) allocate nothing.
func TestArriveOnWarmQueueAllocatesNothing(t *testing.T) {
	e, donor := refusedPiggyback(t)
	// A head too long for the idle instances blocks the idle path.
	e.pending = slices.Insert(e.pending, 0, arrived(50, 750_000, 100, 5))
	donor.running = true
	x := arrived(99, 1_000, 100, 50)
	n := len(e.pending)
	if avg := testing.AllocsPerRun(100, func() {
		e.Arrive(x)
		if len(e.pending) != n+1 || e.pending[n] != x {
			t.Fatalf("arrival launched or moved the queue: %v", ids(e.pending))
		}
		e.pending[n] = nil
		e.pending = e.pending[:n]
	}); avg != 0 {
		t.Fatalf("Arrive on a warm queue allocates %.2f objects, want 0", avg)
	}
}

// TestRefusedDispatchKeepsArrivalOrder covers a queue head that is out of
// arrival order, which two preemptions from different groups produce (each
// victim goes to the head). A refused Eq 1-2 attempt must leave the
// dispatched requests sorted by arrival, in requeueRef's order, and the
// rest of the queue untouched.
func TestRefusedDispatchKeepsArrivalOrder(t *testing.T) {
	e := newEngineForUnit(t)
	e.env.Sim.AdvanceTo(atMs(100))
	a := addDecodeGroup(e, []kvcache.InstanceID{0}, decoding(1, 60), arrived(2, 500, 100, 70))
	b := addDecodeGroup(e, []kvcache.InstanceID{1}, decoding(3, 60), arrived(4, 500, 100, 80))
	e.pending = []*serving.Request{
		arrived(5, 500, 100, 50), arrived(6, 500, 100, 50),
		arrived(7, 900_000, 100, 90), // blocks admission after it
		arrived(8, 500, 100, 95),
	}
	e.preemptYoungest(a)
	e.preemptYoungest(b)
	if got := ids(e.pending); !slices.Equal(got, []kvcache.RequestID{4, 2, 5, 6, 7, 8}) {
		t.Fatalf("preemptions queued %v", got)
	}
	grown := append(slices.Clone(a.instances), e.idleInstances()...)
	k := e.dispatch(e.freeOn(grown), len(grown))
	if k != 4 {
		t.Fatalf("dispatch admitted %d requests, want the 4 ahead of the 900K prompt", k)
	}
	want := requeueRef(e.pending, k, e.pending[:k])
	if e.piggybackRound(e.idleInstances()) {
		t.Fatal("piggyback launched")
	}
	if !slices.Equal(e.pending, want) {
		t.Fatalf("queue after a refused attempt %v, want %v", ids(e.pending), ids(want))
	}
	if got := ids(e.pending); !slices.Equal(got, []kvcache.RequestID{5, 6, 2, 4, 7, 8}) {
		t.Fatalf("queue after a refused attempt %v, want arrival order at the head", got)
	}
}

// TestPlanDropReturnsToHeadAndBatchesStayOwned drives two prefill rounds
// through the scratch buffers. In the first, the Eq 5 batcher cannot place
// every dispatched request: without a fitted multi-instance strategy each
// batch runs on one instance, and only one 120K prompt fits an instance.
// The two newest return to the head in arrival order, in requeueRef's
// order. The second round dispatches again into the same
// buffers, and every group launched in the first must keep its batch and
// instances. The greedy ablation batcher (which places everything here)
// must keep them too.
func TestPlanDropReturnsToHeadAndBatchesStayOwned(t *testing.T) {
	for _, o := range []struct {
		name  string
		opts  Options
		drops bool
	}{{"dp", Options{}, true}, {"greedy", Options{DisableDPBatching: true}, false}} {
		t.Run(o.name, func(t *testing.T) {
			e := newEngineForUnit(t)
			e.Opts = o.opts
			e.env.Sim.AdvanceTo(atMs(100))
			// The SIB has no fit for two or more instances, so each Eq 5
			// batch runs on one instance and E_p does not grow.
			for sp := 2; sp < len(e.spPrefillOK); sp++ {
				e.spPrefillOK[sp] = false
			}
			busy := &group{id: e.nextGID, phase: phaseDecode, running: true,
				instances: []kvcache.InstanceID{3}, mastered: make([]int, len(e.byInst))}
			e.nextGID++
			e.addGroup(busy)
			e.byInst[3] = busy
			// Queue order is not arrival order (preemptions put victims at
			// the head); the 200K prompt blocks admission after five.
			arrivals := []int64{10, 50, 20, 40, 30}
			for i, ms := range arrivals {
				e.pending = append(e.pending, arrived(i+1, 120_000, 10, ms))
			}
			e.pending = append(e.pending, arrived(6, 200_000, 10, 60), arrived(7, 1_000, 10, 70))
			before := slices.Clone(e.pending)

			if !e.scheduleOnePrefillRound() {
				t.Fatal("first round launched nothing")
			}
			var first []*group
			var batches [][]kvcache.RequestID
			var insts [][]kvcache.InstanceID
			for _, g := range e.groupList {
				if g.phase == phasePrefill {
					first = append(first, g)
					batches = append(batches, ids(g.batch))
					insts = append(insts, slices.Clone(g.instances))
				}
			}
			launched := 0
			for _, b := range batches {
				launched += len(b)
			}
			if o.drops {
				// Requests 2 (50 ms) and 4 (40 ms) are the newest of the five.
				want := requeueRef(before, 5, []*serving.Request{before[1], before[3]})
				if !slices.Equal(e.pending, want) || launched != 3 {
					t.Fatalf("after the drop: pending %v, want %v; %d launched", ids(e.pending), ids(want), launched)
				}
				if got := ids(e.pending); !slices.Equal(got, []kvcache.RequestID{4, 2, 6, 7}) {
					t.Fatalf("dropped requests not at the head in arrival order: %v", got)
				}
			} else if launched != 5 || !slices.Equal(e.pending, before[5:]) {
				t.Fatalf("greedy round launched %d, pending %v", launched, ids(e.pending))
			}

			// Free instance 3 and dispatch again through the same buffers.
			e.dissolve(busy)
			if !e.scheduleOnePrefillRound() {
				t.Fatal("second round launched nothing")
			}
			for i, g := range first {
				if !slices.Equal(ids(g.batch), batches[i]) || !slices.Equal(g.instances, insts[i]) {
					t.Fatalf("group %d changed after a later dispatch: batch %v on %v, launched as %v on %v",
						g.id, ids(g.batch), g.instances, batches[i], insts[i])
				}
			}
		})
	}
}

// The queue order after a dispatch hands requests back depends on how
// requests that arrived at the same instant are ordered. byArrival under
// slices.SortFunc must order them exactly as sort.Slice does, on slices long
// enough for the quicksort's pivot selection and partitioning to run.
func TestArrivalSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2_000; trial++ {
		n := 1 + rng.Intn(2*maxDispatch)
		distinct := 1 + rng.Intn(n)
		reqs := make([]*serving.Request, n)
		for i := range reqs {
			reqs[i] = arrived(i, 1, 1, int64(rng.Intn(distinct)))
		}
		want := slices.Clone(reqs)
		sort.Slice(want, func(a, b int) bool { return want[a].Arrival < want[b].Arrival })
		slices.SortFunc(reqs, byArrival)
		if !slices.Equal(reqs, want) {
			t.Fatalf("trial %d (n=%d, %d arrival times): SortFunc %v, sort.Slice %v", trial, n, distinct, ids(reqs), ids(want))
		}
	}
}
