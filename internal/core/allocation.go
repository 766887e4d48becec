package core

import (
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
)

// This file implements step 2 of the scheduling algorithm (§5.2), elastic
// instance allocation: beyond the idle instances, R_p may claim instances
// currently held by decoding groups when their resident KV can migrate
// cheaply to other decoding instances. Eq 3 prices the prefill time saved
// by one more instance; Eq 4 prices the migration. Memory-driven
// reclamation (the "preempt a few instances with the most unused key-value
// cache slots" rule) uses the same evacuation mechanics when the pending
// head cannot fit the idle pool at all.

// allocateInstances grows E_p from the idle set by evacuating decode
// instances while Eq 3's gain exceeds Eq 4's cost. It returns the final
// instance set, the migration delay the prefill must absorb before starting
// (KV must vacate first), and wantMore: set when a large further speedup
// exists but the holding groups are mid-iteration — the caller should defer
// the launch a few milliseconds to the next iteration boundary rather than
// run a minute-scale prefill under-parallelized. The instance set is the
// engine's scratch, valid until the next dispatch attempt; the batch
// planner copies what a group keeps.
func (e *Engine) allocateInstances(rp []*serving.Request, idle []kvcache.InstanceID) ([]kvcache.InstanceID, time.Duration, bool) {
	insts := append(e.pre.insts[:0], idle...)
	var delay time.Duration
	m := len(e.env.Cluster.Instances)
	lens := e.pre.lens[:0]
	invLen := 0.0
	for _, r := range rp {
		l := e.prefillLen(r)
		lens = append(lens, l)
		invLen += 1 / float64(l)
	}
	e.pre.lens = lens
	for len(insts) < m {
		cur, ok1 := e.prefillCoeffsSP(len(insts))
		nxt, ok2 := e.prefillCoeffsSP(len(insts) + 1)
		if !ok1 || !ok2 {
			break
		}
		deltaT := cur.Predict(lens).Seconds() - nxt.Predict(lens).Seconds()
		if deltaT <= 0 {
			break
		}
		cand, _, migTime, ok := e.cheapestEvacuation()
		if !ok {
			// A big win may be one busy-group completion away (a decode
			// iteration or another batch's prefill): wait for it.
			if deltaT > 5 && e.busyGroupExists() {
				e.pre.insts = insts
				return insts, delay, true
			}
			break
		}
		// Eq 3: Gain = Σ_r (T(R_p, E_p) − T(R_p, E_p ∪ e_min)) / r.input_len.
		gain := deltaT * invLen
		// Eq 4: Cost = Σ_r V(e_min)/avg_bandwidth / r.input_len.
		cost := migTime.Seconds() * invLen
		if gain <= cost {
			break
		}
		d, ok := e.evacuate(cand)
		if !ok {
			break
		}
		if d > delay {
			delay = d
		}
		insts = append(insts, cand)
	}
	e.pre.insts = insts
	return insts, delay, false
}

// busyGroupExists reports whether any group is mid-iteration — i.e., a
// future completion event will re-run the scheduler and may free or unlock
// instances.
func (e *Engine) busyGroupExists() bool {
	for _, g := range e.groupList {
		if g.running {
			return true
		}
	}
	return false
}

// reclaimForMemory evacuates decode instances until the pending head's
// future KV consumption fits the idle pool (or no evacuation is possible).
// Returns the accumulated migration delay and whether anything was freed.
func (e *Engine) reclaimForMemory(need int) (time.Duration, bool) {
	var delay time.Duration
	freedAny := false
	for e.freeOn(e.idleInstances()) < need {
		cand, _, _, ok := e.cheapestEvacuation()
		if !ok {
			return delay, freedAny
		}
		d, ok := e.evacuate(cand)
		if !ok {
			return delay, freedAny
		}
		if d > delay {
			delay = d
		}
		freedAny = true
	}
	return delay, freedAny
}

// cheapestEvacuation finds the decode instance with the least resident KV
// that can be vacated right now, returning it with the token count and the
// migration time estimate. Only instances of idle (non-running) decoding
// groups qualify; the group must either have siblings with room or another
// idle decoding group able to absorb it.
func (e *Engine) cheapestEvacuation() (kvcache.InstanceID, int, time.Duration, bool) {
	best := kvcache.InstanceID(-1)
	bestTokens := 0
	var bestMig time.Duration
	for _, g := range e.sortedGroups() {
		if g.phase != phaseDecode || g.running || len(g.reqs) == 0 {
			continue
		}
		for _, id := range g.instances {
			tokens := e.residentTokens(g, id)
			if _, _, ok := e.evacuationPlan(g, id, tokens); !ok {
				continue
			}
			if best < 0 || tokens < bestTokens {
				recv, _, _ := e.evacuationPlan(g, id, tokens)
				best = id
				bestTokens = tokens
				bestMig = e.env.Cluster.MigrationTime(tokens, id, recv)
			}
		}
	}
	if best < 0 {
		return -1, 0, 0, false
	}
	return best, bestTokens, bestMig, true
}

// residentTokens returns the KV tokens group g's requests hold on one
// instance.
func (e *Engine) residentTokens(g *group, id kvcache.InstanceID) int {
	total := 0
	for _, r := range g.reqs {
		total += e.env.Pool.HeldOn(r.ID, id)
	}
	return total
}

// evacuationPlan determines where instance id's resident KV would go:
// sibling instances of the same group when it has any with room, otherwise
// another idle decoding group with room (a merge). Returns a representative
// receiver (for link costing), the target group, and feasibility.
func (e *Engine) evacuationPlan(g *group, id kvcache.InstanceID, tokens int) (kvcache.InstanceID, *group, bool) {
	if len(g.instances) > 1 {
		free := 0
		var recv kvcache.InstanceID = -1
		for _, other := range g.instances {
			if other == id {
				continue
			}
			f := e.env.Pool.Pool(other).Free()
			free += f
			if recv < 0 || f > e.env.Pool.Pool(recv).Free() {
				recv = other
			}
		}
		if free >= tokens {
			return recv, g, true
		}
		return -1, nil, false
	}
	// Single-instance group: absorb into another idle decoding group.
	for _, target := range e.sortedGroups() {
		if target == g || target.phase != phaseDecode || target.running || len(target.reqs) == 0 {
			continue
		}
		free := 0
		var recv kvcache.InstanceID = -1
		for _, other := range target.instances {
			if other == id {
				continue
			}
			f := e.env.Pool.Pool(other).Free()
			free += f
			if recv < 0 || f > e.env.Pool.Pool(recv).Free() {
				recv = other
			}
		}
		if recv >= 0 && free >= tokens {
			return recv, target, true
		}
	}
	return -1, nil, false
}

// evacuate moves every KV token off instance id, shrinking or merging its
// decoding group, and leaves id idle. Returns the migration time charged to
// the claimant.
func (e *Engine) evacuate(id kvcache.InstanceID) (time.Duration, bool) {
	g := e.byInst[id]
	if g == nil || g.phase != phaseDecode || g.running {
		return 0, false
	}
	tokens := e.residentTokens(g, id)
	recv, target, ok := e.evacuationPlan(g, id, tokens)
	if !ok {
		return 0, false
	}
	// Move each request's slice of id into the target group's instances,
	// most-free first — token granularity, no locality constraint.
	for i, r := range g.reqs {
		n := e.env.Pool.HeldOn(r.ID, id)
		for n > 0 {
			dst := e.mostFreeExcept(target.instances, id)
			if dst < 0 {
				return 0, false // cannot happen given evacuationPlan's check
			}
			chunk := e.env.Pool.Pool(dst).Free()
			if chunk > n {
				chunk = n
			}
			if chunk == 0 {
				return 0, false
			}
			if err := e.env.Pool.Move(r.ID, id, dst, chunk); err != nil {
				panic("core: evacuation move failed: " + err.Error())
			}
			n -= chunk
		}
		// Mastership must stay on an instance that remains in the request's
		// group.
		if g.masters[i] == id {
			g.setMaster(i, recv)
		}
	}
	mig := e.env.Cluster.MigrationTime(tokens, id, recv)

	if target == g {
		// Shrink: drop id from the group.
		g.instances = subtract(g.instances, []kvcache.InstanceID{id})
	} else {
		// Merge the single-instance group into the target; no request is
		// mastered on id any more.
		for i, r := range g.reqs {
			target.addReq(r, g.masters[i])
		}
		e.removeGroup(g)
	}
	e.byInst[id] = nil
	e.Migrations++
	e.MigratedTokens += tokens
	e.tracer.record(e.env.Sim.Now(), TraceEvacuate, target, tokens)
	return mig, true
}

// mostFreeExcept returns the instance with the most free slots among ids,
// excluding one.
func (e *Engine) mostFreeExcept(ids []kvcache.InstanceID, except kvcache.InstanceID) kvcache.InstanceID {
	best := kvcache.InstanceID(-1)
	bestFree := 0
	for _, id := range ids {
		if id == except {
			continue
		}
		if f := e.env.Pool.Pool(id).Free(); f > bestFree {
			best, bestFree = id, f
		}
	}
	return best
}
