package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// maxDispatch bounds one dispatch round; the Eq 5 dynamic program is
// O(n^2 m^2) and the tipping point usually stops far earlier.
const maxDispatch = 64

// scheduleOnePrefillRound runs steps 1-3 of the scheduling algorithm once:
// dispatch a request set R_p from the pending queue, allocate elastic
// instances E_p, plan batches with the Eq 5 dynamic program, and launch
// them. When no idle capacity can host R_p, the Eq 1-2 path lets R_p
// prefill on a decoding group's instances — consuming that group's unused
// KV slots and joining its batch afterwards (§5.1: "unused key-value slots
// of instances in its parallel group G_p,i can be used to add an
// additional subset of new requests R'_p,i"). Returns whether any batch
// launched.
func (e *Engine) scheduleOnePrefillRound() bool {
	if len(e.pending) == 0 {
		return false
	}
	launched := false
	idle := e.idleInstances()
	var memDelay time.Duration
	if len(idle) > 0 && len(e.pending) > 0 {
		// §5.2 memory reclamation: when even the head request cannot fit
		// the idle pool, preempt decode instances' memory via migration.
		head := e.pending[0]
		if need := e.prefillLen(head) + (head.OutputLen - head.Generated) + 1; need > e.freeOn(idle) {
			if d, freed := e.reclaimForMemory(need); freed {
				memDelay = d
				idle = e.idleInstances()
			}
		}
	}
	if len(idle) > 0 {
		if k := e.dispatch(e.freeOn(idle), len(idle)); k > 0 {
			// Step 2 (Eq 3-4): grow E_p by evacuating decode instances
			// while the predicted prefill speedup beats the migration.
			insts, delay, wantMore := e.allocateInstances(e.pending[:k], idle)
			if wantMore {
				// Defer to the next decode iteration boundary (milliseconds
				// away) where the evacuation can actually happen.
				e.refuseDispatch(k)
				return launched
			}
			if memDelay > delay {
				delay = memDelay
			}
			rp := append(e.pre.rp[:0], e.pending[:k]...)
			e.pre.rp = rp
			plans, dropped := e.planBatches(rp, insts)
			// Requests the batcher could not place return to the head of
			// the pending queue in arrival order.
			e.commitDispatch(k, dropped)
			for _, p := range plans {
				e.launchPrefill(p.reqs, p.lens, p.insts, nil, delay)
				launched = true
			}
		}
	}
	// The Eq 1-2 path runs in addition: R'_p beyond the idle capacity can
	// prefill on a decoding group's instances and join its batch.
	if len(e.pending) > 0 && !e.Opts.DisableBorrowing {
		if e.piggybackRound(e.idleInstances()) {
			launched = true
		}
	}
	return launched
}

// piggybackRound is the Eq 1-2 path: prefill R'_p on a decoding group's
// instances (plus any idle ones), pausing the group for one iteration; the
// new requests join the group's batch when the prefill completes.
func (e *Engine) piggybackRound(idle []kvcache.InstanceID) bool {
	donor := e.pickDonor()
	if donor == nil {
		return false
	}
	insts := donor.instances
	grown := !e.Opts.DisableScaleUp && len(idle) > 0
	if grown {
		// Idle instances may carry KV too; they join the decode group at
		// completion (a scale-up). With scale-up disabled the group cannot
		// grow, so only the donor's own memory counts.
		insts = append(append(e.pre.insts[:0], donor.instances...), idle...)
		e.pre.insts = insts
	}
	k := e.dispatch(e.freeOn(insts), len(insts))
	if k == 0 {
		return false
	}
	rp := e.pending[:k]
	lens := e.pre.lens[:0]
	for _, r := range rp {
		lens = append(lens, e.prefillLen(r))
	}
	e.pre.lens = lens
	if !e.borrowWorthIt(rp, lens, donor, len(insts)) && !e.agedOutCheap(rp, lens, len(insts)) {
		e.refuseDispatch(k)
		return false
	}
	// The prefill group keeps its batch, lengths and instance set.
	rp, lens = slices.Clone(rp), slices.Clone(lens)
	if grown {
		insts = slices.Clone(insts)
	}
	e.commitDispatch(k, nil)
	donor.running = true // paused while its instances run the prefill
	e.launchPrefill(rp, lens, insts, donor, 0)
	return true
}

// agedOutCheap applies the starvation override only to prefills whose
// predicted iteration is short: pausing a decoding batch for tens of
// milliseconds to unblock aged requests is fine; pausing it for a
// minute-scale long-context prefill is not — those wait for the Eq 3-4
// allocation path to assemble proper instances.
func (e *Engine) agedOutCheap(rp []*serving.Request, lens []int, sp int) bool {
	if !e.agedOut(rp) {
		return false
	}
	coeffs, ok := e.prefillCoeffsSP(sp)
	if !ok {
		return false
	}
	return coeffs.Predict(lens) <= time.Second
}

// freeOn sums free KV slots over instances.
func (e *Engine) freeOn(ids []kvcache.InstanceID) int {
	total := 0
	for _, id := range ids {
		total += e.env.Pool.Pool(id).Free()
	}
	return total
}

// byArrival orders requests by arrival time. slices.SortFunc with it runs
// the same pattern-defeating quicksort as sort.Slice with the equivalent
// less function, so requests that arrived at the same instant end up in
// the same order under either.
func byArrival(a, b *serving.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }

// refuseDispatch abandons a dispatch of pending[:k] that launched nothing:
// the dispatched requests stay at the head of the queue, sorted by
// arrival.
func (e *Engine) refuseDispatch(k int) {
	slices.SortFunc(e.pending[:k], byArrival)
}

// commitDispatch takes a launched dispatch of pending[:k] off the queue.
// The requests in back were dispatched but did not launch; they return to
// the head in arrival order, ahead of pending[k:]. The queue is rebuilt in
// place, so its backing array stays the one Arrive appends to. back must
// not share memory with the queue.
func (e *Engine) commitDispatch(k int, back []*serving.Request) {
	q := e.pending
	n := copy(q, back)
	slices.SortFunc(q[:n], byArrival)
	m := n + copy(q[n:], q[k:])
	clear(q[m:])
	e.pending = q[:m]
}

// dispatch is step 1 (§5.1): scan the pending queue FCFS, admitting
// requests while (a) their maximum future KV consumption fits the given
// free-slot budget — avoiding future evictions — and (b) the predicted
// batch iteration time stays under the profiled memory-bound tipping
// point. Under backlog (the queue head has aged out) the tipping point
// relaxes: with work piling up, larger batches amortize the per-iteration
// overhead, and each piggyback pause on a decoding group then carries more
// prefilled tokens.
//
// It returns the size k of the admitted set R_p, which is pending[:k], and
// leaves the queue as it is. The caller ends the attempt with
// commitDispatch when something launches or refuseDispatch when nothing
// does; nothing reads or grows the queue in between.
func (e *Engine) dispatch(avail, sp int) int {
	if sp < 1 {
		sp = 1
	}
	coeffs, haveCoeffs := e.prefillCoeffsSP(sp)
	tipping := e.sib.PrefillTippingPoint
	if len(e.pending) > 0 && e.agedOut(e.pending[:1]) {
		tipping *= 4
	}

	// The tipping check keeps running Σlen/Σlen² instead of rebuilding the
	// candidate length vector per admission (the sums accumulate in the
	// same order the vector would, so predictions are bit-identical).
	var sumLen, sumSq float64
	k := 0
	for ; k < len(e.pending) && k < maxDispatch; k++ {
		r := e.pending[k]
		// Maximum future consumption: full context plus the entire output.
		futureNeed := e.prefillLen(r) + (r.OutputLen - r.Generated) + 1
		if futureNeed > avail {
			break // strict FCFS: wait rather than starve the head
		}
		l := float64(e.prefillLen(r))
		if k > 0 && haveCoeffs {
			if coeffs.PredictSums(sumLen+l, sumSq+l*l) > tipping {
				break // compute-bound already; more requests only add delay
			}
		}
		avail -= futureNeed
		sumLen += l
		sumSq += l * l
	}
	return k
}

// prefillCoeffsSP returns the fitted Eq 7 coefficients for DoP sp at the
// engine's TP, from the table built at Init.
func (e *Engine) prefillCoeffsSP(sp int) (costmodel.Coeffs, bool) {
	if sp < 1 || sp >= len(e.spPrefill) {
		return costmodel.Coeffs{}, false
	}
	return e.spPrefill[sp], e.spPrefillOK[sp]
}

// pickDonor returns the idle decoding group with the largest batch (and
// some unused KV): joining the biggest batch amortizes the per-iteration
// overhead over the most requests, which is what consolidates decode work
// into few large groups and eventually triggers the compute-bound
// scale-up.
func (e *Engine) pickDonor() *group {
	var donor *group
	for _, g := range e.sortedGroups() {
		if g.phase != phaseDecode || g.running || len(g.reqs) == 0 {
			continue
		}
		if e.freeOn(g.instances) == 0 {
			continue
		}
		if donor == nil || len(g.reqs) > len(donor.reqs) {
			donor = g
		}
	}
	return donor
}

// agedOut is the starvation guard on the Eq 1-2 gate: strict FCFS must not
// let a pending prefill wait unboundedly just because decoding batches are
// mature (zero Eq 2 gain). Once the head request has waited several decode
// lifetimes' worth of slack, the prefill proceeds regardless.
func (e *Engine) agedOut(rp []*serving.Request) bool {
	const maxWait = 300 * simevent.Millisecond
	now := e.env.Sim.Now()
	for _, r := range rp {
		if now-r.Arrival > simevent.Time(maxWait) {
			return true
		}
	}
	return false
}

// borrowWorthIt evaluates Eqs 1-2: the gain of running R'_p now (the
// queueing it avoids, normalized per input token) against the cost of
// stalling the donor's decode batch for one prefill iteration (normalized
// per already-generated output token). lens is rp's prefill-length vector,
// already built by the caller.
func (e *Engine) borrowWorthIt(rp []*serving.Request, lens []int, donor *group, sp int) bool {
	coeffs, ok := e.prefillCoeffsSP(sp)
	if !ok {
		return false
	}
	tIter := coeffs.Predict(lens).Seconds()

	// Eq 1: Cost = Σ_{r in B} T(R_p ∪ R', E_p ∪ G) / r.output_len.
	cost := 0.0
	minExec := math.Inf(1)
	now := e.env.Sim.Now()
	for _, dr := range donor.reqs {
		gen := dr.Generated
		if gen < 1 {
			gen = 1
		}
		cost += tIter / float64(gen)
		exec := (now - dr.FirstToken).Seconds()
		if exec < minExec {
			minExec = exec
		}
	}
	// Eq 2: Gain = Σ_{r in R'} (AvgLat_d − min(B.exec_time))+ / r.input_len.
	avgLat := 1.0
	if e.decodeLatCount > 0 {
		avgLat = e.decodeLatSum / float64(e.decodeLatCount)
	}
	wait := avgLat - minExec
	if wait < 0 {
		wait = 0
	}
	gain := 0.0
	for _, r := range rp {
		gain += wait / float64(e.prefillLen(r))
	}
	return gain > cost
}

// batchPlan is one planned prefill batch: requests and the instances that
// will form its parallel group.
type batchPlan struct {
	reqs  []*serving.Request
	lens  []int
	insts []kvcache.InstanceID
}

// planBatches is step 3 (§5.3): the Eq 5 dynamic program. Requests are
// sorted by length descending (similar lengths batch together), instances
// by free slots ascending; f[i][k] is the minimum summed input latency of
// the first i requests on the first k instances, with batches required to
// fit the memory of their instance segment. Infeasible tails are dropped
// (returned) and retried.
func (e *Engine) planBatches(rp []*serving.Request, insts []kvcache.InstanceID) ([]batchPlan, []*serving.Request) {
	if e.Opts.DisableDPBatching {
		return e.planGreedy(rp, insts)
	}
	var dropped []*serving.Request
	for len(rp) > 0 {
		plans, ok := e.dpBatches(rp, insts)
		if ok {
			return plans, dropped
		}
		// Drop the most recently arrived request and retry.
		worst := 0
		for i := range rp {
			if rp[i].Arrival > rp[worst].Arrival {
				worst = i
			}
		}
		dropped = append(dropped, rp[worst])
		rp = append(rp[:worst], rp[worst+1:]...)
	}
	return nil, dropped
}

// prefillScratch holds the dispatch path's reusable buffers. Nothing in it
// outlives one dispatch attempt: a launched prefill group keeps copies.
type prefillScratch struct {
	rp    []*serving.Request   // R_p's working copy, which planBatches edits
	insts []kvcache.InstanceID // allocateInstances' E_p, or the Eq 1-2 donor-plus-idle set
	lens  []int                // R_p's prefill lengths
}

// dpScratch holds the reusable Eq 5 problem buffers: the sorted views, the
// DP input (with its solver matrices) and nothing that outlives a call —
// returned plans copy the segments they keep, because groups retain their
// request and instance slices across iterations.
type dpScratch struct {
	sorted []*serving.Request
	order  []kvcache.InstanceID
	in     batchDPInput
}

// dpBatches runs the DP over one candidate set; ok=false when no feasible
// partition exists.
func (e *Engine) dpBatches(rp []*serving.Request, insts []kvcache.InstanceID) ([]batchPlan, bool) {
	// Sort requests by prefill length descending.
	sorted := append(e.dp.sorted[:0], rp...)
	e.dp.sorted = sorted
	slices.SortFunc(sorted, func(a, b *serving.Request) int {
		if la, lb := e.prefillLen(a), e.prefillLen(b); la != lb {
			return cmp.Compare(lb, la)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	// Sort instances by free slots ascending (paper §5.3).
	order := append(e.dp.order[:0], insts...)
	e.dp.order = order
	slices.SortFunc(order, func(a, b kvcache.InstanceID) int {
		if fa, fb := e.env.Pool.Pool(a).Free(), e.env.Pool.Pool(b).Free(); fa != fb {
			return cmp.Compare(fa, fb)
		}
		return cmp.Compare(a, b)
	})

	m := len(order)
	in := &e.dp.in
	in.lens = in.lens[:0]
	in.reserve = in.reserve[:0]
	in.free = in.free[:0]
	for _, r := range sorted {
		in.lens = append(in.lens, e.prefillLen(r))
		in.reserve = append(in.reserve, e.reserveLen(r))
	}
	for _, id := range order {
		in.free = append(in.free, e.env.Pool.Pool(id).Free())
	}
	// The per-SP coefficient table is the engine's, built once at Init; the
	// solver only indexes sp in [1, m].
	in.coeffs = e.spPrefill
	in.have = e.spPrefillOK
	if m+1 > len(in.coeffs) {
		return nil, false // unreachable: insts is a subset of the cluster
	}

	solver := solveBatchDP
	if e.Opts.UseQIBatching {
		solver = solveBatchDPQI
	}
	segs, _, ok := solver(in)
	if !ok {
		return nil, false
	}
	plans := make([]batchPlan, 0, len(segs))
	for _, s := range segs {
		plans = append(plans, batchPlan{
			reqs:  append([]*serving.Request(nil), sorted[s.ReqLo:s.ReqHi]...),
			lens:  append([]int(nil), in.lens[s.ReqLo:s.ReqHi]...),
			insts: append([]kvcache.InstanceID(nil), order[s.InstLo:s.InstHi]...),
		})
	}
	return plans, true
}

// planGreedy is the ablation batcher: one batch over every instance, whole
// R_p, dropping the newest requests until it fits.
func (e *Engine) planGreedy(rp []*serving.Request, insts []kvcache.InstanceID) ([]batchPlan, []*serving.Request) {
	var dropped []*serving.Request
	free := 0
	for _, id := range insts {
		free += e.env.Pool.Pool(id).Free()
	}
	for len(rp) > 0 {
		need := 0
		for _, r := range rp {
			need += e.reserveLen(r)
		}
		if need <= free {
			lens := make([]int, len(rp))
			for i, r := range rp {
				lens[i] = e.prefillLen(r)
			}
			// rp and insts are the engine's scratch; the group keeps copies.
			return []batchPlan{{reqs: slices.Clone(rp), lens: lens, insts: slices.Clone(insts)}}, dropped
		}
		worst := 0
		for i := range rp {
			if rp[i].Arrival > rp[worst].Arrival {
				worst = i
			}
		}
		dropped = append(dropped, rp[worst])
		rp = append(rp[:worst], rp[worst+1:]...)
	}
	return nil, dropped
}

// considerMerges consolidates idle decoding groups when the SIB decode
// model predicts a throughput gain: two small batches on separate instances
// waste two per-iteration overheads where one merged batch pays one.
// Merging is free under ESP — the merged group is the union of the
// instance sets, every request keeps its master, and no KV moves (§4.2's
// multi-master decoding works over any token placement). The union is
// capped at half the cluster so the prefill phase always has instances to
// win back.
func (e *Engine) considerMerges() {
	maxUnion := (len(e.env.Cluster.Instances) + 1) / 2
	if maxUnion < 1 {
		maxUnion = 1
	}
	for guard := 0; guard < 16; guard++ {
		idleGroups := e.mergeScratch[:0]
		for _, g := range e.sortedGroups() {
			if g.phase == phaseDecode && !g.running && len(g.reqs) > 0 {
				idleGroups = append(idleGroups, g)
			}
		}
		e.mergeScratch = idleGroups
		if len(idleGroups) < 2 {
			return
		}
		var bestA, bestB *group
		bestGain := 0.0
		for i := 0; i < len(idleGroups); i++ {
			for j := i + 1; j < len(idleGroups); j++ {
				a, b := idleGroups[i], idleGroups[j]
				union := len(a.instances) + countNotIn(b.instances, a.instances)
				if union > maxUnion {
					continue
				}
				if gain := e.mergeGain(a, b, union); gain > bestGain {
					bestGain, bestA, bestB = gain, a, b
				}
			}
		}
		if bestA == nil {
			return
		}
		e.merge(bestA, bestB)
	}
}

// mergeGain predicts the token-throughput change of merging two decoding
// groups, using the SIB decode model (never ground truth).
func (e *Engine) mergeGain(a, b *group, unionSP int) float64 {
	ta, ok1 := e.decodePredict(len(a.reqs), groupKV(a), len(a.instances))
	tb, ok2 := e.decodePredict(len(b.reqs), groupKV(b), len(b.instances))
	tm, ok3 := e.decodePredict(len(a.reqs)+len(b.reqs), groupKV(a)+groupKV(b), unionSP)
	if !ok1 || !ok2 || !ok3 || ta <= 0 || tb <= 0 || tm <= 0 {
		return 0
	}
	separate := float64(len(a.reqs))/ta + float64(len(b.reqs))/tb
	merged := float64(len(a.reqs)+len(b.reqs)) / tm
	return merged - separate
}

func groupKV(g *group) int {
	s := 0
	for _, r := range g.reqs {
		s += r.KVNow()
	}
	return s
}

func (e *Engine) decodePredict(bs, sumKV, sp int) (float64, bool) {
	if sp < 1 || sp >= len(e.spDecode) || !e.spDecodeOK[sp] {
		return 0, false
	}
	return e.spDecode[sp].Predict(bs, sumKV).Seconds(), true
}

// merge absorbs group b into group a.
func (e *Engine) merge(a, b *group) {
	for _, id := range b.instances {
		if !instIn(a.instances, id) {
			a.instances = append(a.instances, id)
		}
		e.byInst[id] = a
	}
	for i, r := range b.reqs {
		a.addReq(r, b.masters[i])
	}
	e.removeGroup(b)
}

// launchDecode runs step 4's decode side and starts the group's next
// iteration: compute-bound scale-up, memory-pressure scale-up (or
// preemption as last resort), then one DecodeIterTime step.
func (e *Engine) launchDecode(g *group) {
	if g.running {
		return
	}
	if len(g.reqs) == 0 {
		e.dissolve(g)
		e.wakeIfPending()
		return
	}
	e.considerComputeScaleUp(g)
	e.ensureDecodeCapacity(g)
	if len(g.reqs) == 0 {
		// ensureDecodeCapacity preempted the whole batch (every request
		// moved back to pending). The group's instances just went idle;
		// without a wakeup the preempted work would wait forever — there
		// may be no other group left to generate a completion event.
		e.dissolve(g)
		e.wakeIfPending()
		return
	}

	bs := len(g.reqs)
	if bs > e.MaxDecodeBS {
		e.MaxDecodeBS = bs
	}
	if len(e.groupList) > e.MaxGroups {
		e.MaxGroups = len(e.groupList)
	}
	sumKV := 0
	for _, r := range g.reqs {
		sumKV += r.KVNow()
	}
	masters := g.distinct
	link := e.env.Cluster.GroupLink(g.instances)
	d := e.env.CM.DecodeIterTime(bs, sumKV, len(g.instances), e.TP, masters, link)
	if e.fuseDecode && e.launchFused(g, d, bs, sumKV, masters, link) {
		return
	}
	g.running = true
	// Fix the iteration's batch (a join can grow g.reqs mid-flight; joined
	// requests sit out this iteration) and arm the group's reusable event.
	g.iterN = bs
	if g.decodeEv == nil {
		g.decodeEv = e.env.Sim.NewEvent(func() { e.decodeIterDone(g) })
	}
	e.env.Sim.ScheduleAfter(g.decodeEv, d)
}

// decodeIterDone completes a decoding group's in-flight iteration: every
// batched request gains one token on its master, finished requests retire,
// and the scheduler runs.
func (e *Engine) decodeIterDone(g *group) {
	if e.fusedGroup == g {
		// End of a fused window: materialize every remaining iteration
		// (including this final boundary) and fall through to the normal
		// completion epilogue.
		e.applyFused(len(e.fusedEnds))
		e.fusedGroup = nil
	} else {
		for i, r := range g.reqs[:g.iterN] {
			r.Generated++
			if err := e.env.Pool.AllocRef(&r.KV, r.ID, g.masters[i], 1); err != nil {
				panic(fmt.Sprintf("%s: decode alloc on instance %d failed: %v", e.Label, g.masters[i], err))
			}
		}
	}
	g.running = false
	e.retireFinished(g)
	e.shrinkDecode(g)
	if len(g.reqs) == 0 {
		e.dissolve(g)
	}
	e.schedule()
}

// considerComputeScaleUp grows the group / master set when the decode batch
// crosses the profiled compute-bound threshold (§5.4): FFN work dominates,
// so spreading dense layers over more masters pays. The target is enough
// masters that each one's share stays at or under the threshold.
func (e *Engine) considerComputeScaleUp(g *group) {
	// len(reqs) ≤ distinct·threshold is ceil(len(reqs)/threshold) ≤
	// distinct without the division: the common case on every iteration.
	if len(g.reqs) <= g.distinct*e.decodeBS {
		return
	}
	desired := (len(g.reqs) + e.decodeBS - 1) / e.decodeBS
	if g.distinct < len(g.instances) {
		e.rebalanceMasters(g, desired)
		return
	}
	if e.Opts.DisableScaleUp {
		return
	}
	idle := e.idleInstances()
	if len(idle) == 0 {
		return
	}
	// Grow only when the SIB decode model predicts a real win — at some
	// point the query-exchange overhead of a wider group eats the
	// dense-layer gain.
	kv := groupKV(g)
	tNow, ok1 := e.decodePredict(len(g.reqs), kv, len(g.instances))
	tGrown, ok2 := e.decodePredict(len(g.reqs), kv, len(g.instances)+1)
	if !ok1 || !ok2 || tGrown > 0.97*tNow {
		return
	}
	e.addInstance(g, idle[0])
	e.rebalanceMasters(g, desired)
}

// desiredMasters returns the master count the compute threshold asks for,
// clamped to the group size.
func (e *Engine) desiredMasters(g *group) int {
	d := (len(g.reqs) + e.decodeBS - 1) / e.decodeBS
	if d < 1 {
		d = 1
	}
	if d > len(g.instances) {
		d = len(g.instances)
	}
	return d
}

// ensureDecodeCapacity guarantees every master instance can absorb its
// requests' next tokens: rebalance mastership toward free instances, scale
// up with an idle instance when the group is collectively short, preempt
// the youngest request as a last resort.
func (e *Engine) ensureDecodeCapacity(g *group) {
	for guard := 0; guard < 64; guard++ {
		deficit := 0
		for _, id := range g.instances {
			if short := g.mastered[id] - e.env.Pool.Pool(id).Free(); short > 0 {
				deficit += short
			}
		}
		if deficit == 0 {
			return
		}
		if e.rebalanceTowardFree(g) {
			continue
		}
		if !e.Opts.DisableScaleUp {
			if idle := e.idleInstances(); len(idle) > 0 {
				e.addInstance(g, idle[0])
				continue
			}
		}
		e.preemptYoungest(g)
		if len(g.reqs) == 0 {
			return
		}
	}
}

// rebalanceTowardFree moves mastership of requests from over-committed
// instances to group members with spare slots. Mastership moves are free:
// only future tokens land on the new master (§4.2). Reports whether any
// move happened.
func (e *Engine) rebalanceTowardFree(g *group) bool {
	moved := false
	for i, m := range g.masters {
		if e.env.Pool.Pool(m).Free() >= g.mastered[m] {
			continue
		}
		// Find the group instance with the most spare capacity.
		var best kvcache.InstanceID = -1
		bestSpare := 0
		for _, id := range g.instances {
			if s := e.env.Pool.Pool(id).Free() - g.mastered[id]; s > bestSpare {
				best, bestSpare = id, s
			}
		}
		if best < 0 {
			return moved
		}
		g.setMaster(i, best)
		moved = true
	}
	return moved
}

// rebalanceMasters spreads mastership evenly over n group instances —
// concentrating it when the batch is small (so unused instances drain and
// scale-down can reclaim them) and widening it when the batch is compute
// bound. The n master instances are those with the most free KV slots,
// since new tokens land on masters.
func (e *Engine) rebalanceMasters(g *group, n int) {
	if n < 1 {
		n = 1
	}
	if n > len(g.instances) {
		n = len(g.instances)
	}
	order := append(e.orderScratch[:0], g.instances...)
	e.orderScratch = order
	slices.SortFunc(order, e.mostFreeFirst)
	for i := range g.masters {
		g.setMaster(i, order[i%n])
	}
}

// addInstance performs an elastic scale-up: the instance joins the group
// with its KV pool; no existing tokens move (§4.2).
func (e *Engine) addInstance(g *group, id kvcache.InstanceID) {
	g.instances = append(g.instances, id)
	e.byInst[id] = g
	e.ScaleUps = append(e.ScaleUps, e.env.Sim.Now())
	e.tracer.record(e.env.Sim.Now(), TraceScaleUp, g, 0)
}

// wakeIfPending schedules an immediate re-run of the scheduler when
// requests are waiting. It goes through the event queue rather than
// recursing: launchDecode runs inside schedule(), and the freed instances
// only become claimable once the current pass finishes.
func (e *Engine) wakeIfPending() {
	if len(e.pending) == 0 {
		return
	}
	e.env.Sim.After(0, e.scheduleFn)
}

// preemptYoungest evicts the most recently arrived request of the group for
// later recompute — the eviction the dispatcher's future-consumption check
// is designed to make rare.
func (e *Engine) preemptYoungest(g *group) {
	if len(g.reqs) == 0 {
		return
	}
	worst := 0
	for i := range g.reqs {
		if g.reqs[i].Arrival > g.reqs[worst].Arrival {
			worst = i
		}
	}
	victim := g.reqs[worst]
	g.dropReq(worst)
	e.env.Pool.ReleaseRequest(victim.ID)
	e.recompute[victim.ID] = victim.KVNow()
	victim.Phase = serving.Pending
	e.pending = slices.Insert(e.pending, 0, victim)
	e.Preemptions++
	e.tracer.record(e.env.Sim.Now(), TracePreempt, g, victim.KVNow())
}

// shrinkDecode releases group instances that neither master a request nor
// hold any of the group's KV — the optional decode scale-down of §4,
// freeing resources for the prefill phase.
func (e *Engine) shrinkDecode(g *group) {
	if e.allInUse(g) {
		return
	}
	keep := g.instances[:0]
	for _, id := range g.instances {
		if e.inUse[id] {
			keep = append(keep, id)
			continue
		}
		e.byInst[id] = nil
	}
	if len(keep) == 0 {
		keep = g.instances[:1] // never overwritten: nothing was kept
		e.byInst[keep[0]] = g
	}
	g.instances = keep
	e.tracer.record(e.env.Sim.Now(), TraceShrink, g, 0)
}

// allInUse reports whether every instance of g masters one of its requests
// or holds any of their KV, leaving the verdict per group instance in
// e.inUse. The master counts settle the common case without walking KV
// placements. shrinkDecode keeps exactly the in-use instances, and the
// fusion check asks whether it would keep them all.
func (e *Engine) allInUse(g *group) bool {
	if len(g.instances) <= 1 {
		return true
	}
	all := true
	for _, id := range g.instances {
		e.inUse[id] = g.mastered[id] > 0
		all = all && e.inUse[id]
	}
	if all {
		return true
	}
	for _, r := range g.reqs {
		e.env.Pool.EachPlacement(&r.KV, r.ID, e.markPlaced)
	}
	for _, id := range g.instances {
		if !e.inUse[id] {
			return false
		}
	}
	return true
}
