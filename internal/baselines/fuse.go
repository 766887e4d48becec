package baselines

import (
	"fmt"
	"time"
)

// Decode-iteration fusion for ContBatch. When runDecode can prove that the
// next K decode iterations are identical apart from KV growth, it arms
// decodeEv once, at the end of the K-th, and defers each iteration's
// Generated++ and one-token alloc until someone needs them. A long steady
// decode then costs O(1) simulator events instead of one per token. The
// LoongServe core's fusion (internal/core/fuse.go) is the template;
// ContBatch's case is simpler: one batch on one instance, static masters,
// and no prefill beside a decode. The engine fuses by default; Unfused
// runs the reference.
//
// Exactness argument. At launch, after runDecode's preemption loop, with
// bs = len(running) and F the free slots on the engine's one instance, a
// window of K ≥ 2 iterations is exact when:
//
//  1. K ≤ min over the batch of (OutputLen − Generated): no interior
//     boundary finishes a request, so finishAndContinue retires nothing
//     and the batch stays fixed.
//  2. K ≤ ⌊F/bs⌋: after i < K boundaries F has fallen by i·bs and still
//     holds (K−i)·bs ≥ bs, so every interior alloc succeeds and the
//     preemption loop never fires.
//  3. admitPrefills refuses the queue head at the first boundary. This
//     holds by construction, so launchFused does not test it. runDecode
//     runs only after admitPrefills refused: the queue was empty, or
//     running ≥ MaxBatch, or the head's reserve + watermark exceeded the
//     free slots. Without an eviction nothing admitPrefills reads has
//     changed since. If the preemption loop evicted requests, the last
//     victim heads the queue and reserves its kv resident tokens. Before
//     its eviction at most bs slots were free (the loop runs while free <
//     running), so after the first iteration's bs allocs at most kv are
//     free, less than kv + watermark: the watermark counts the running
//     requests. Inside a window running is fixed, free slots only fall
//     and Arrive only appends, so admitPrefills refuses at every interior
//     boundary. Only an Arrive that makes the arrival the head changes
//     that, and it fissions the window first (below).
//  4. The engine keeps KV on one instance and owns its simulator heap.
//     PlaceSpread is most-free-first, so one batched allocation could
//     place tokens on other instances than single-token ones would
//     (StaticHybrid). A Router's sub-engines share one heap (Replicated),
//     where the fused event's sequence number, taken at launch, could
//     order it against a sibling's same-nanosecond event differently from
//     the unfused event, armed at the previous boundary. Both stay
//     unfused.
//
// Under 1–4 the unfused engine would run K identical decodeDone → step →
// runDecode cycles whose only effects are Generated++ and one alloc per
// request, iteration i (from 0) lasting DecodeIterTime(bs, sumKV + i·bs, …).
// The fused event fires at the sum of those individually rounded
// durations, each taken from one costmodel.DecodeStep per window (equal to
// DecodeIterTime bit for bit).
//
// Deferred state is applied in one batch covering exactly the boundaries
// strictly before now: when the window ends, when Load reads the engine,
// and when an arrival fissions the window. The pool is count-based, so one
// n-token alloc on the instance leaves it as n one-token allocs would. The
// window's state is O(1) — K, the count applied, the next boundary's time,
// the launch sumKV and the step (bs is the decode batch's length) — and a
// batch walks the boundaries forward from the next one. A fleet keeps every
// replica it ever provisioned, so a per-window array of boundary times
// would stay resident in each of them.
//
// Fission. An arrival into an empty queue becomes a head admitPrefills
// may admit at the next boundary. Arrive then materializes the boundaries
// strictly before now and re-arms the in-flight iteration's boundary as a
// normal decode event. serving.Run stages every arrival before the run
// starts and the fleet runner delivers an arrival before any engine event
// at its instant, so an arrival at a boundary's exact nanosecond precedes
// that boundary's event in the unfused run too. Besides staged arrivals,
// the engine's heap holds only its own decode or prefill event, one at a
// time (busy), so neither the fused event nor the re-armed one can change
// places with a same-instant event.
//
// Event accounting. A window that completes saves its K−1 interior
// events; a fissioned one saves every iteration it materialized (its
// in-flight iteration fires as a normal event in both runs). Since iters
// counts materialized iterations, unfused events − fused events = iters −
// windows + fissions, which TestContBatchDecodeFusionEventIdentity checks.

// fusionStats counts fused decode windows: those launched, the iterations
// materialized from them, and those dissolved before their last boundary.
type fusionStats struct {
	windows, iters, fissions int
}

// launchFused tries to fuse the decode batch runDecode just fixed, d being
// its first iteration's duration and sumKV its resident KV. It checks
// conditions 1, 2 and 4, arms decodeEv at the window's last boundary and
// reports true, or reports false, arming nothing, when fewer than two
// iterations qualify: a 1-iteration window is just a normal iteration.
func (e *ContBatch) launchFused(d time.Duration, sumKV int) bool {
	if e.Unfused || e.Spread || e.sharedHeap {
		return false
	}
	bs := len(e.decodeBatch)
	free := e.freeTokens()
	k := free / bs
	for _, r := range e.decodeBatch {
		k = min(k, r.OutputLen-r.Generated)
	}
	if k < 2 {
		return false
	}
	// Only the resident KV changes between iterations; the step computes
	// every other term once.
	e.fuseStep = e.env.CM.DecodeStep(bs, e.SP, e.TP, e.Masters, e.link)
	e.fuseNext = e.env.Sim.Now().Add(d)
	t := e.fuseNext
	for i := 1; i < k; i++ {
		t = t.Add(e.fuseStep.At(sumKV + i*bs))
	}
	e.fuseK, e.fuseDone, e.fuseKV = k, 0, sumKV
	e.env.Sim.ScheduleAt(e.decodeEv, t)
	e.fusion.windows++
	return true
}

// applyFused materializes the window's iterations fuseDone..upto-1 in one
// batch.
func (e *ContBatch) applyFused(upto int) {
	n := upto - e.fuseDone
	if n <= 0 {
		return
	}
	for _, r := range e.decodeBatch {
		r.Generated += n
		if err := e.alloc(r, n); err != nil {
			panic(fmt.Sprintf("%s: fused decode alloc failed: %v", e.Label, err))
		}
	}
	e.fuseDone = upto
	e.fusion.iters += n
}

// syncFused brings deferred decode state current for a reader: every
// boundary strictly before now has happened. The last boundary is the
// fused event itself, which the engine's clock never passes while the
// window is live.
func (e *ContBatch) syncFused() {
	if e.fuseK == 0 {
		return
	}
	now, bs := e.env.Sim.Now(), len(e.decodeBatch)
	j := e.fuseDone
	for j < e.fuseK-1 && e.fuseNext < now {
		j++
		e.fuseNext = e.fuseNext.Add(e.fuseStep.At(e.fuseKV + j*bs))
	}
	e.applyFused(j)
}

// fissionFused dissolves the live window because an arrival is about to
// become the queue head. Materialized state is exactly the unfused
// mid-iteration state; the in-flight iteration's boundary is re-armed as a
// normal decode event.
func (e *ContBatch) fissionFused() {
	e.syncFused()
	e.env.Sim.Cancel(e.decodeEv)
	e.fuseK = 0
	e.fusion.fissions++
	e.env.Sim.ScheduleAt(e.decodeEv, e.fuseNext)
}
