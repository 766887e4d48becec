package fleet

import (
	"fmt"
	"sort"
	"time"

	"loongserve/internal/controlplane"
	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// This file makes replica failure a first-class scenario: CrashReplica
// destroys a replica mid-flight and recovers its requests on survivors,
// StallReplica freezes one replica's arrivals (the straggler hedging
// defends against), DropControlCaches wipes one instance's control-plane
// metadata (repaired by the manager's Nak/resend path), and applyFault
// fires the deterministic workload.Fault schedule NewGateway stages from
// Config.Faults.

// FaultStats accounts the faults a run absorbed.
type FaultStats struct {
	Crashes    int
	Stalls     int
	CacheDrops int
	// Drains counts fault-injected (unplanned-churn) drains; operator
	// drains via DrainReplica directly are not faults and not counted.
	Drains int
	// LinkDegrades counts link-slowdown windows applied.
	LinkDegrades int
	// RecoveredRequests counts in-flight requests re-routed to survivors
	// after their replica crashed (hedge promotions excluded — those never
	// re-prefill).
	RecoveredRequests int
	// Skipped counts scheduled faults that could not fire (e.g. a crash
	// drawn while only one replica was active).
	Skipped int
}

// CrashReplica fails a replica abruptly: no drain, no handoff. Its
// resident KV is destroyed, its engine's remaining simulated events are
// silenced, the control plane removes the dead instance and repairs the
// group membership, and every in-flight request it held is recovered — a
// surviving hedge copy is promoted in place; everything else re-enters
// routing with its original arrival time and re-prefills only what no
// surviving cache still holds. The last active replica cannot crash (the
// gateway invariant that routing always has a destination).
func (g *Gateway) CrashReplica(idx int) error {
	if idx < 0 || idx >= len(g.replicas) {
		return fmt.Errorf("fleet: crash of unknown replica %d", idx)
	}
	rep := g.replicas[idx]
	if rep.state != ReplicaActive {
		return fmt.Errorf("fleet: replica %d is %v, not active", idx, rep.state)
	}
	if g.ActiveReplicas() <= 1 {
		return fmt.Errorf("fleet: cannot crash the last active replica")
	}

	// Snapshot the doomed in-flight set in ID order (pending is a map; the
	// recovery sequence must be deterministic).
	ids := make([]kvcache.RequestID, 0, rep.outReqs)
	for id, fl := range g.pending {
		if fl.rep == rep {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	inFlight := len(ids)
	kvLost := rep.radix.Used()

	// Hedge copies dying here resolve as losses now, before the crash
	// event — their HedgeLose is attributed to this replica, and no event
	// may follow its crash. A copy whose primary already crashed (it was
	// promoted, it IS the request) is deferred to recovery instead.
	var toRecover []*inflight
	var recoverAs []kvcache.RequestID
	for _, id := range ids {
		fl := g.pending[id]
		if fl.hedgeOf == 0 {
			continue
		}
		delete(g.pending, id)
		if ofl := g.pending[fl.hedgeOf]; ofl != nil {
			ofl.hedgeID = 0 // the primary lives; it just lost its hedge
			g.res.Hedge.Losses++
			g.emitHedgeLose(fl.entry.SessionID, fl.hedgeOf, idx, 0, fl.peerRep)
			g.freeInflight(fl)
		} else {
			toRecover = append(toRecover, fl)
			recoverAs = append(recoverAs, fl.hedgeOf)
		}
	}
	for _, id := range ids {
		fl := g.pending[id]
		if fl == nil || fl.hedgeOf != 0 {
			continue // hedge copies were handled above
		}
		delete(g.pending, id)
		if fl.hedgeID != 0 && g.pending[fl.hedgeID] != nil {
			// A live hedge copy survives on another replica: promote it.
			// It finishes under this primary's identity; no re-prefill,
			// no recovery event — the hedge already was the recovery.
			g.freeInflight(fl)
			continue
		}
		fl.hedgeID = 0
		toRecover = append(toRecover, fl)
		recoverAs = append(recoverAs, id)
	}

	// The crash proper. The gated sink dies with the replica: its engine
	// cannot be cancelled and keeps simulating, but nothing it does from
	// here on reaches the stream or the books.
	rep.state = ReplicaFailed
	rep.retiredAt = g.sim.Now()
	if rep.sink != nil {
		rep.sink.dead = true
	}
	rep.outTokens, rep.outReqs = 0, 0
	g.res.Faults.Crashes++
	g.event("crash", "", idx, "%d in-flight requests, %d cached KV tokens destroyed", inFlight, kvLost)
	g.emitCrash(idx, inFlight, kvLost)

	// Control plane: tear down the dead instance's connection, then repair
	// the group membership around it. Survivors see the epoch advance; the
	// dead member is skipped (it can never ack).
	g.ctl.remove(idx)
	if err := g.ctl.scale(controlplane.ScaleDown, g.activeIDs()); err != nil {
		return fmt.Errorf("fleet: control-plane crash repair: %w", err)
	}

	// The resident KV dies with the process.
	rep.radix.Clear()
	for key, home := range g.sessionHome {
		if home == idx {
			delete(g.sessionHome, key)
		}
	}
	// Ghosts routed here will never report a completion the gateway sees.
	for id, fl := range g.ghosts {
		if fl.rep == rep {
			delete(g.ghosts, id)
			g.freeInflight(fl)
		}
	}

	// Recovery: each doomed request re-enters routing with its original
	// arrival (its latency honestly includes the crash) and re-prefills
	// only the suffix no surviving cache covers.
	for i, fl := range toRecover {
		id := recoverAs[i]
		info := requestInfo(id, fl.fullInput, fl.entry)
		salvage := 0
		for _, sv := range g.replicas {
			if sv.state != ReplicaActive {
				continue
			}
			if c := sv.CachedTokens(info); c > salvage {
				salvage = c
			}
		}
		r := &serving.Request{
			ID:        id,
			InputLen:  fl.fullInput,
			OutputLen: fl.output,
			Arrival:   fl.arrival,
			SLOBudget: fl.slo,
		}
		e := fl.entry
		g.res.Faults.RecoveredRequests++
		g.emitRecover(e.SessionID, id, salvage, idx)
		g.freeInflight(fl)
		g.Submit(r, e)
		if nfl := g.pending[id]; nfl != nil {
			// Keep recovered completions out of the hedge TTFT baseline —
			// their first-token time includes the crash they survived.
			nfl.recovered = true
		}
	}
	return nil
}

// StallReplica freezes a replica's request intake for d: arrivals routed to
// it are deferred until the stall lifts (already-admitted work keeps
// running — the model is a transient I/O or scheduling hiccup, not a
// halt). Overlapping stalls extend, never shorten.
func (g *Gateway) StallReplica(idx int, d time.Duration) error {
	if idx < 0 || idx >= len(g.replicas) {
		return fmt.Errorf("fleet: stall of unknown replica %d", idx)
	}
	rep := g.replicas[idx]
	if rep.state != ReplicaActive {
		return fmt.Errorf("fleet: replica %d is %v, not active", idx, rep.state)
	}
	if d <= 0 {
		return nil
	}
	until := g.sim.Now() + simevent.Time(d)
	if until > rep.stalledUntil {
		rep.stalledUntil = until
	}
	g.res.Faults.Stalls++
	g.event("stall", "", idx, "arrivals deferred %v", d.Round(time.Millisecond))
	return nil
}

// DegradeLinks slows every inter-replica transfer — drains, migrations,
// cold-tier fetches — by factor for the next window of simulated time:
// migrationDelay multiplies by factor while the window is open, and since
// policies price migrations through the same function, routing honestly
// avoids the congested link. Overlapping windows keep the larger factor
// and the later deadline.
func (g *Gateway) DegradeLinks(factor float64, window time.Duration) error {
	if factor < 1 {
		return fmt.Errorf("fleet: link-degrade factor %v < 1", factor)
	}
	if window <= 0 || factor == 1 {
		return nil
	}
	if g.sim.Now() >= g.degradeUntil {
		g.degradeFactor = factor // previous window expired: fresh factor
	} else if factor > g.degradeFactor {
		g.degradeFactor = factor
	}
	if until := g.sim.Now() + simevent.Time(window); until > g.degradeUntil {
		g.degradeUntil = until
	}
	g.res.Faults.LinkDegrades++
	g.event("degrade", "", 0, "links %.1fx slower for %v", factor, window.Round(time.Millisecond))
	return nil
}

// DropControlCaches wipes one replica instance's control-plane metadata
// cache, as if its process restarted: the next command it receives draws a
// NakUnknownGroup and the manager's config-resend repair — visible in
// ControlStats as Naks and Resends.
func (g *Gateway) DropControlCaches(idx int) error {
	if idx < 0 || idx >= len(g.replicas) {
		return fmt.Errorf("fleet: cache drop on unknown replica %d", idx)
	}
	if g.replicas[idx].state == ReplicaFailed {
		return fmt.Errorf("fleet: cache drop on crashed replica %d", idx)
	}
	g.ctl.dropCaches(idx)
	g.res.Faults.CacheDrops++
	g.event("cachedrop", "", idx, "control-plane metadata cache wiped")
	return nil
}

// applyFault fires one scheduled fault (Config.Faults), resolving its
// abstract Slot against the replicas active now. NewGateway validated the
// schedule, so every kind here is known.
func (g *Gateway) applyFault(f workload.Fault) {
	var actives []int
	for _, rep := range g.replicas {
		if rep.state == ReplicaActive {
			actives = append(actives, rep.index)
		}
	}
	if len(actives) == 0 {
		g.res.Faults.Skipped++
		return
	}
	idx := actives[f.Slot%len(actives)]
	var err error
	switch f.Kind {
	case workload.FaultCrash:
		if len(actives) <= 1 {
			g.res.Faults.Skipped++
			return
		}
		err = g.CrashReplica(idx)
	case workload.FaultStall:
		err = g.StallReplica(idx, f.Stall)
	case workload.FaultCacheDrop:
		err = g.DropControlCaches(idx)
	case workload.FaultDrain:
		if len(actives) <= 2 {
			// A drain leaves the replica unroutable for the rest of the
			// run; keep at least two active so a later crash stays fireable.
			g.res.Faults.Skipped++
			return
		}
		g.res.Faults.Drains++
		err = g.DrainReplica(idx)
	case workload.FaultDegrade:
		err = g.DegradeLinks(f.Factor, f.Window)
	}
	if err != nil {
		panic(fmt.Sprintf("fleet: fault %s on replica %d: %v", f.Kind, idx, err))
	}
}
