package core

import (
	"math"

	"loongserve/internal/cluster"
	"loongserve/internal/kvcache"
)

// Decode-iteration fusion: when the engine can prove that the next K decode
// iterations of a group are fully determined — same batch, same masters,
// same DoP, no scheduler action possible between them — it collapses them
// into one simulator event and defers the per-iteration token/KV bookkeeping
// until someone needs it. Long steady decodes (the common state of a
// long-context workload) then cost O(1) events instead of O(output length).
//
// Exactness argument. With fusion enabled the engine fuses only when, at
// launch time:
//
//  1. The group is the engine's only live group and the pending queue is
//     empty. Then every scheduler pass between iterations
//     (scheduleOnePrefillRound, considerMerges, wakeIfPending) is a no-op,
//     and nothing can pause, borrow from, merge into or join the group —
//     all of those paths begin with a pending request or a second group.
//  2. The unclamped compute-threshold master demand ceil(bs/threshold) is
//     already ≤ the distinct master count, so considerComputeScaleUp
//     returns without touching the group on every interior boundary.
//  3. shrinkDecode would keep every instance (each one masters a request
//     or holds group KV). Interior iterations only add KV to masters, so a
//     no-op shrink at launch stays a no-op for the whole window.
//  4. K ≤ K_fin = min over the batch of (OutputLen − Generated): no
//     request finishes before the fused event, so retireFinished is a no-op
//     on every interior boundary.
//  5. K ≤ K_cap = min over masters m of ⌊Free(m)/assigned(m)⌋: every
//     interior AllocAt succeeds and ensureDecodeCapacity finds zero deficit
//     at every interior boundary (after i iterations Free(m) has dropped by
//     i·assigned(m), still ≥ (K−i)·assigned(m)).
//
// Under 1–5 the unfused engine would execute K identical
// decodeIterDone→schedule→launchDecode cycles whose only effects are
// Generated++ and one AllocAt per request per iteration, with iteration i
// lasting DecodeIterTime(bs, sumKV + i·bs, …). The fused event fires at the
// sum of those individually-rounded durations; interior boundary times are
// kept so deferred state materializes on exactly the unfused schedule.
//
// The only external entry points into a running engine are Arrive and the
// read-only reporter interfaces. Arrive fissions the window first
// (materialize interior boundaries strictly before now, then re-arm the
// in-flight iteration's boundary as a normal decode event), so the engine
// an arrival observes is bit-identical to the unfused one. Load
// materializes lazily without breaking the window. The one divergence
// window is an arrival landing at the exact nanosecond of an interior
// boundary: the canonical order is then arrival-first, where the unfused
// run's order depends on event sequence numbers. With float-fitted
// durations summed in nanoseconds such ties do not occur in practice, and
// the fusion identity property tests would catch one if it did.

// DecodeFusionStats reports fusion effectiveness for one engine.
type DecodeFusionStats struct {
	Windows int // fused windows launched
	Iters   int // decode iterations executed inside fused windows
}

// SetDecodeFusion implements serving.DecodeFuser: it enables (or disables)
// decode-iteration fusion for subsequently launched decode windows.
// Disabling does not fission an in-flight window.
func (e *Engine) SetDecodeFusion(on bool) { e.fuseDecode = on }

// FusionStats reports how much decoding ran fused.
func (e *Engine) FusionStats() DecodeFusionStats { return e.fusion }

// fuseEligible checks conditions 1–5 above and returns the window length K
// (0 when the group must run unfused). bs and masters are the launch-time
// batch size and distinct master count the caller already computed.
func (e *Engine) fuseEligible(g *group, bs, masters int) int {
	if len(e.groupList) != 1 || e.groupList[0] != g || len(e.pending) != 0 {
		return 0
	}
	threshold := e.sib.DecodeBSThreshold
	if threshold < 1 {
		threshold = 1
	}
	if (bs+threshold-1)/threshold > masters {
		return 0 // compute scale-up would fire on an interior boundary
	}
	if !e.allInUse(g) {
		return 0 // shrinkDecode would release an instance
	}
	kfin := 0
	for _, r := range g.reqs {
		if left := r.OutputLen - r.Generated; kfin == 0 || left < kfin {
			kfin = left
		}
	}
	k := min(kfin, e.capIterations(g))
	if k < 2 {
		return 0 // a 1-iteration window is just a normal iteration
	}
	return k
}

// capIterations returns K_cap: how many iterations every master can absorb
// its per-iteration token share, read off the group's master counts.
func (e *Engine) capIterations(g *group) int {
	kcap := math.MaxInt
	for id, n := range g.mastered {
		if n > 0 {
			kcap = min(kcap, e.env.Pool.Pool(kvcache.InstanceID(id)).Free()/n)
		}
	}
	return kcap
}

// launchFused arms one event covering K iterations, storing every interior
// boundary so deferred state can materialize on the exact unfused schedule.
func (e *Engine) launchFused(g *group, k, bs, sumKV, masters int, link cluster.Link) {
	ends := g.fusedEnds[:0]
	t := e.env.Sim.Now()
	for i := 0; i < k; i++ {
		t = t.Add(e.env.CM.DecodeIterTime(bs, sumKV+i*bs, len(g.instances), e.TP, masters, link))
		ends = append(ends, t)
	}
	g.fusedEnds = ends
	g.fused = true
	g.fusedDone = 0
	g.running = true
	g.iterN = bs
	if g.decodeEv == nil {
		g.decodeEv = e.env.Sim.NewEvent(func() { e.decodeIterDone(g) })
	}
	e.env.Sim.ScheduleAt(g.decodeEv, ends[k-1])
	e.fusedGroup = g
	e.fusion.Windows++
	e.fusion.Iters += k
}

// applyFused materializes deferred iterations up to boundary index upto
// (exclusive of nothing: iterations fusedDone..upto-1 are applied). Pool
// state after a batched AllocAt of n tokens is identical to n single-token
// allocations — the pool is count-based — so materialization order cannot
// be observed.
func (e *Engine) applyFused(g *group, upto int) {
	delta := upto - g.fusedDone
	if delta <= 0 {
		return
	}
	for i, r := range g.reqs[:g.iterN] {
		r.Generated += delta
		if err := e.env.Pool.AllocRef(&r.KV, r.ID, g.masters[i], delta); err != nil {
			panic(err)
		}
	}
	g.fusedDone = upto
}

// syncFused brings deferred decode state current for an external reader:
// every boundary strictly before now has happened.
func (e *Engine) syncFused() {
	g := e.fusedGroup
	if g == nil {
		return
	}
	now := e.env.Sim.Now()
	j := g.fusedDone
	for j < len(g.fusedEnds) && g.fusedEnds[j] < now {
		j++
	}
	e.applyFused(g, j)
}

// fissionFused dissolves an in-flight fused window because the stability
// conditions are about to break (an arrival). Materialized state is exactly
// the unfused mid-iteration state; the in-flight iteration's boundary is
// re-armed as a normal decode event.
func (e *Engine) fissionFused() {
	g := e.fusedGroup
	if g == nil {
		return
	}
	e.syncFused()
	e.env.Sim.Cancel(g.decodeEv)
	next := g.fusedEnds[g.fusedDone]
	g.fused = false
	e.fusedGroup = nil
	e.env.Sim.ScheduleAt(g.decodeEv, next)
}
