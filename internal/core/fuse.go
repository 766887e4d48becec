package core

import (
	"math"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/kvcache"
	"loongserve/internal/simevent"
)

// Decode-iteration fusion: when the engine can prove that the next K decode
// iterations of a group are fully determined — same batch, same masters,
// same DoP, no scheduler action possible between them — it collapses them
// into one simulator event and defers the per-iteration token/KV bookkeeping
// until someone needs it. Long steady decodes (the common state of a
// long-context workload) then cost O(1) events instead of O(output length).
// The engine fuses by default; SetDecodeFusion(false) runs the unfused
// reference.
//
// Exactness argument. The engine fuses only when, at launch time:
//
//  1. g is the engine's only decoding group, every other live group is a
//     running prefill, and the pending queue is empty. Each step of the
//     scheduler pass at an interior boundary is then a no-op:
//     - dispatch returns at once on the empty queue. Only Arrive (which
//     fissions the window) and preemption (which needs the capacity
//     deficit condition 5 rules out) add to the queue.
//     - considerMerges needs two idle decoding groups; g is the only one.
//     - considerComputeScaleUp returns at once by condition 2.
//     - schedule calls launchDecode only on decoding groups, so it starts
//     g's next iteration and skips every prefill group.
//     - A prefill reserved its KV at launch, on its own instances, which
//     are disjoint from g's: every instance has one owning group, and a
//     piggyback prefill borrows only a paused decoding group, which does
//     not launch a window. g's free slots and placements therefore move
//     only with g's own tokens, so conditions 3 and 5 keep holding.
//     Nothing can pause, borrow from, merge into or join g: all of those
//     begin with a pending request or a finishing prefill. No group is
//     created or retired inside the window, so MaxDecodeBS and MaxGroups
//     see at every boundary what they saw at launch.
//  2. The compute-threshold master demand is met: bs ≤ masters·threshold,
//     that is ceil(bs/threshold) ≤ the distinct master count, so
//     considerComputeScaleUp returns without touching the group on every
//     interior boundary.
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
//  6. The window ends at the first boundary at or after the earliest
//     completion time of a running prefill (recorded in launchPrefill), so
//     a completing prefill discards at most the in-flight iteration.
//
// Under 1–6 the unfused engine would execute K identical
// decodeIterDone→schedule→launchDecode cycles whose only effects are
// Generated++ and one AllocAt per request per iteration, with iteration i
// lasting DecodeIterTime(bs, sumKV + i·bs, …). The fused event fires at the
// sum of those individually-rounded durations, each taken from one
// costmodel.DecodeStep per window (equal to DecodeIterTime bit for bit);
// interior boundary times are kept so deferred state materializes on
// exactly the unfused schedule.
//
// Two entry points change what the proof assumed, and both fission the
// window first (materialize interior boundaries strictly before now, then
// re-arm the in-flight iteration's boundary as a normal decode event), so
// the engine they observe is bit-identical to the unfused one:
//
//   - Arrive. serving.Run stages every arrival before the run starts and
//     the fleet runner delivers an arrival before any engine event at its
//     instant, so an arrival at the exact nanosecond of a boundary precedes
//     that boundary's decode event in the unfused run too.
//   - finishPrefill. A prefill's completion event was scheduled when the
//     prefill launched, before the window (no prefill launches inside a
//     window), so it carries a lower sequence number than the fused event
//     and than the unfused run's decode event, which was armed at the
//     previous boundary. At a same-nanosecond tie the prefill fires first
//     in both runs, and the re-armed boundary fires after it.
//
// Nothing else schedules into the engine's heap during a window, and the
// fission runs before its handler schedules anything, so the re-armed
// event keeps its unfused place among same-instant events. Load
// materializes lazily without breaking the window.
//
// Event accounting. A window that completes saves its K−1 interior events;
// a fissioned one saves every iteration it materialized (its in-flight
// iteration fires as a normal event in both runs). Since Iters counts
// materialized iterations, unfused events − fused events = Iters − Windows
// + Fissions, which TestDecodeFusionEventIdentity checks exactly.

// DecodeFusionStats reports fusion effectiveness for one engine.
type DecodeFusionStats struct {
	Windows  int // fused windows launched
	Iters    int // decode iterations materialized from fused windows
	Fissions int // windows dissolved before their last boundary
}

// SetDecodeFusion enables (the default) or disables decode-iteration
// fusion for subsequently launched decode windows. Disabling does not
// fission an in-flight window; call it before Init for the unfused
// reference.
func (e *Engine) SetDecodeFusion(on bool) { e.fuseDecode = on }

// FusionStats reports how much decoding ran fused.
func (e *Engine) FusionStats() DecodeFusionStats { return e.fusion }

// fuseEligible checks conditions 1–5 above. It returns the window length
// bound K (0 when the group must run unfused) and the earliest completion
// time of a running prefill (condition 6). bs and masters are the
// launch-time batch size and distinct master count the caller already
// computed.
func (e *Engine) fuseEligible(g *group, bs, masters int) (int, simevent.Time) {
	limit := simevent.Time(math.MaxInt64)
	if len(e.pending) != 0 {
		return 0, limit
	}
	for _, o := range e.groupList {
		if o == g {
			continue
		}
		if o.phase == phaseDecode {
			return 0, limit // a second decoding group could merge or be borrowed
		}
		limit = min(limit, o.prefillEnd)
	}
	if bs > masters*e.decodeBS {
		return 0, limit // compute scale-up would fire on an interior boundary
	}
	if !e.allInUse(g) {
		return 0, limit // shrinkDecode would release an instance
	}
	kfin := 0
	for _, r := range g.reqs {
		if left := r.OutputLen - r.Generated; kfin == 0 || left < kfin {
			kfin = left
		}
	}
	return min(kfin, e.capIterations(g)), limit
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

// launchFused arms one event covering the group's next iterations, d being
// the first one's duration, and stores every boundary in the engine's
// window buffer so deferred state can materialize on the exact unfused
// schedule. It reports false, arming nothing, when fewer than two
// iterations qualify: a 1-iteration window is just a normal iteration.
func (e *Engine) launchFused(g *group, d time.Duration, bs, sumKV, masters int, link cluster.Link) bool {
	k, limit := e.fuseEligible(g, bs, masters)
	t := e.env.Sim.Now().Add(d)
	if k < 2 || t >= limit {
		return false
	}
	// Only the resident KV changes between iterations; the step computes
	// every other term once.
	step := e.env.CM.DecodeStep(bs, len(g.instances), e.TP, masters, link)
	ends := append(e.fusedEnds[:0], t)
	for i := 1; i < k && t < limit; i++ {
		t = t.Add(step.At(sumKV + i*bs))
		ends = append(ends, t)
	}
	e.fusedEnds = ends
	e.fusedDone = 0
	e.fusedGroup = g
	g.running = true
	g.iterN = bs
	if g.decodeEv == nil {
		g.decodeEv = e.env.Sim.NewEvent(func() { e.decodeIterDone(g) })
	}
	e.env.Sim.ScheduleAt(g.decodeEv, t)
	e.fusion.Windows++
	return true
}

// applyFused materializes the fused group's deferred iterations
// fusedDone..upto-1. Pool state after a batched AllocAt of n tokens is
// identical to n single-token allocations — the pool is count-based — so
// materialization order cannot be observed.
func (e *Engine) applyFused(upto int) {
	delta := upto - e.fusedDone
	if delta <= 0 {
		return
	}
	g := e.fusedGroup
	for i, r := range g.reqs[:g.iterN] {
		r.Generated += delta
		if err := e.env.Pool.AllocRef(&r.KV, r.ID, g.masters[i], delta); err != nil {
			panic(err)
		}
	}
	e.fusedDone = upto
	e.fusion.Iters += delta
}

// syncFused brings deferred decode state current for an external reader:
// every boundary strictly before now has happened.
func (e *Engine) syncFused() {
	if e.fusedGroup == nil {
		return
	}
	now := e.env.Sim.Now()
	j := e.fusedDone
	for j < len(e.fusedEnds) && e.fusedEnds[j] < now {
		j++
	}
	e.applyFused(j)
}

// fissionFused dissolves an in-flight fused window because the stability
// conditions are about to break (an arrival or a prefill completion).
// Materialized state is exactly the unfused mid-iteration state; the
// in-flight iteration's boundary is re-armed as a normal decode event.
func (e *Engine) fissionFused() {
	g := e.fusedGroup
	if g == nil {
		return
	}
	e.syncFused()
	e.env.Sim.Cancel(g.decodeEv)
	next := e.fusedEnds[e.fusedDone]
	e.fusedGroup = nil
	e.fusion.Fissions++
	e.env.Sim.ScheduleAt(g.decodeEv, next)
}
