package fleet

import (
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/obs"
	"loongserve/internal/serving"
)

// This file is the gateway's observability surface: the emit helpers the
// request and lifecycle paths call, and the simulated-time telemetry
// sampling loop. Every emitter's first statement is the nil-sink check —
// with observability off the hot paths pay exactly one branch and zero
// allocations per would-be event, which obs_test.go guards with
// AllocsPerRun.

// attachObs wires Config.Obs and Config.Sampler into the gateway. Called
// once from NewGateway, before replicas are built (so the engine
// sinks attach during construction) and before any event can fire.
func (g *Gateway) attachObs() {
	g.obsSink = g.cfg.Obs
	g.policyLabel = g.policy.Name()
	if g.cfg.Sampler != nil && g.cfg.Sampler.Interval > 0 {
		g.sampler = g.cfg.Sampler
		g.samplerEv = g.sim.NewEvent(g.sampleTick)
		g.sim.ScheduleAfter(g.samplerEv, g.sampler.Interval)
	}
}

// Obs returns the gateway's observability sink (nil when disabled) — the
// stream controllers above the gateway (autoscale) emit their decisions
// into, so the whole deployment shares one event sequence.
func (g *Gateway) Obs() obs.Sink { return g.obsSink }

func (g *Gateway) emitEnqueue(session int64, r *serving.Request) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindEnqueue, Replica: -1, Group: -1,
		Session: session, Request: int64(r.ID),
		Tokens: r.InputLen, A: int64(r.OutputLen), B: int64(r.SLOBudget),
	})
}

func (g *Gateway) emitRoute(session int64, req kvcache.RequestID, dest, from int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindRoute, Replica: dest, Group: -1,
		Session: session, Request: int64(req),
		A: int64(from), Label: g.policyLabel,
	})
}

func (g *Gateway) emitCache(session int64, req kvcache.RequestID, rep, hit, full int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindCacheLookup, Replica: rep, Group: -1,
		Session: session, Request: int64(req),
		Tokens: hit, A: int64(full),
	})
}

// emitFinishID records a completion under an explicit request identity —
// a hedge winner finishes under its primary's ID, not the synthetic copy's.
func (g *Gateway) emitFinishID(rep int, session int64, id kvcache.RequestID, r *serving.Request) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindFinish, Replica: rep, Group: -1,
		Session: session, Request: int64(id),
		Tokens: r.OutputLen, A: int64(r.FirstToken), B: int64(r.Arrival),
	})
}

// emitMigrate records one KV transfer. cause must be a string literal
// ("drain", "handoff", "route") — labels are never formatted. The session
// identity comes from the obsSessions reverse map, maintained only while a
// sink is attached (PrefixKey is a hash; it cannot be inverted).
func (g *Gateway) emitMigrate(key PrefixKey, src, dst, tokens int, delay time.Duration, cause string) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindMigrate, Replica: src, Group: -1,
		Session: g.obsSessions[key],
		Tokens:  tokens, A: int64(dst), B: int64(delay), Label: cause,
	})
}

// emitLifecycle mirrors a replica lifecycle event ("provision", "active",
// "drain", "retire" — g.event's vocabulary minus "migrate", which
// emitMigrate covers with richer detail) into the sink.
func (g *Gateway) emitLifecycle(kind string, rep int) {
	if g.obsSink == nil {
		return
	}
	var k obs.Kind
	switch kind {
	case "provision":
		k = obs.KindProvision
	case "active":
		k = obs.KindActivate
	case "drain":
		k = obs.KindDrain
	case "retire":
		k = obs.KindRetire
	default:
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: k, Replica: rep, Group: -1,
		Label: g.replicas[rep].kind.Name,
	})
}

// emitCrash records a replica failure: the in-flight requests killed and
// resident prefix-KV destroyed with it. Every event attributed to the
// replica after this one is a stream defect (the auditor's
// event-after-crash invariant).
func (g *Gateway) emitCrash(rep, inFlight, kvLost int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindCrash, Replica: rep, Group: -1,
		Tokens: inFlight, A: int64(kvLost), Label: g.replicas[rep].kind.Name,
	})
}

// emitRecover records one crashed request's rescue, immediately before its
// recovery re-enqueue: salvaged = session KV tokens still warm on a
// survivor (the re-prefill is only the unshared suffix).
func (g *Gateway) emitRecover(session int64, req kvcache.RequestID, salvaged, crashedRep int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindRecover, Replica: -1, Group: -1,
		Session: session, Request: int64(req),
		Tokens: salvaged, A: int64(crashedRep),
	})
}

// emitHedgeLaunch records a straggler's duplicate submission. The event is
// attributed to the hedge destination; the request identity is the
// primary's (the hedge copy's synthetic ID never appears in the stream).
func (g *Gateway) emitHedgeLaunch(session int64, req kvcache.RequestID, dst, primary, input int, elapsed time.Duration) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindHedgeLaunch, Replica: dst, Group: -1,
		Session: session, Request: int64(req),
		Tokens: input, A: int64(primary), B: int64(elapsed),
	})
}

func (g *Gateway) emitHedgeWin(session int64, req kvcache.RequestID, winner, loser int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindHedgeWin, Replica: winner, Group: -1,
		Session: session, Request: int64(req), A: int64(loser),
	})
}

func (g *Gateway) emitHedgeLose(session int64, req kvcache.RequestID, loser, burned, winner int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindHedgeLose, Replica: loser, Group: -1,
		Session: session, Request: int64(req),
		Tokens: burned, A: int64(winner),
	})
}

// emitDirUpdate records one global-cache-directory change: loc gained or
// lost delta resident tokens, leaving total. label must be a static
// string ("add", "remove", "wipe", "cold-evict"). loc -1 is the cold
// tier; a wipe is the one event legally attributed to a crashed replica
// after its crash (the auditor exempts negative directory deltas).
func (g *Gateway) emitDirUpdate(loc, delta, total int, label string) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindDirectoryUpdate, Replica: loc, Group: -1,
		Tokens: delta, A: int64(total), Label: label,
	})
}

// emitContentRoute records a directory-driven routing decision: the
// overlap tokens the policy claimed were resident at dest, and the load
// state it weighed them against.
func (g *Gateway) emitContentRoute(session int64, req kvcache.RequestID, dest, claim, queue, eligible int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindContentRoute, Replica: dest, Group: -1,
		Session: session, Request: int64(req),
		Tokens: claim, A: int64(queue), B: int64(eligible),
	})
}

// emitColdSpill records one block copied from a replica's capacity
// eviction into the cold tier.
func (g *Gateway) emitColdSpill(rep, tokens, coldUsed, coldBlocks int) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindColdSpill, Replica: rep, Group: -1,
		Tokens: tokens, A: int64(coldUsed), B: int64(coldBlocks),
	})
}

// emitColdFetch records cold KV copied to a replica ahead of a prefill:
// the link time paid and the recompute time it displaced (the fetch only
// happens when the former undercuts the latter).
func (g *Gateway) emitColdFetch(session int64, req kvcache.RequestID, dest, tokens int, linkNS, recomputeNS int64) {
	if g.obsSink == nil {
		return
	}
	g.obsSink.Emit(obs.Event{
		At: g.sim.Now(), Kind: obs.KindColdFetch, Replica: dest, Group: -1,
		Session: session, Request: int64(req),
		Tokens: tokens, A: linkNS, B: recomputeNS,
	})
}

// noteSession records the session-key → session-id mapping emitMigrate
// resolves drain-time transfers through.
func (g *Gateway) noteSession(key PrefixKey, session int64) {
	if g.obsSink == nil || key == 0 {
		return
	}
	if g.obsSessions == nil {
		g.obsSessions = make(map[PrefixKey]int64)
	}
	g.obsSessions[key] = session
}

// sampleTick is the sampler's recurring simulator event: snapshot every
// non-retired replica plus the fleet aggregate, then re-arm — but only
// while other events remain, so sampling never keeps an otherwise-finished
// simulation alive. The event object is owned (simevent.NewEvent), making
// the steady-state loop allocation-free.
func (g *Gateway) sampleTick() {
	now := g.sim.Now()
	fs := obs.FleetSample{At: now, OutstandingReqs: len(g.pending)}
	for _, rep := range g.replicas {
		switch rep.state {
		case ReplicaActive:
			fs.Active++
		case ReplicaWarming:
			fs.Warming++
		case ReplicaDraining:
			fs.Draining++
		case ReplicaRetired:
			fs.Retired++
			continue // retired replicas stop producing per-replica rows
		case ReplicaFailed:
			fs.Failed++
			continue // crashed replicas cost nothing and report nothing
		}
		fs.CostUnits += rep.kind.CostUnits
		sm := obs.Sample{
			At: now, Replica: rep.index, State: int(rep.state),
			QueueDepth:  rep.outReqs,
			OutTokens:   int64(rep.outTokens),
			CacheUsed:   int64(rep.radix.Used()),
			HitTokens:   rep.stats.HitTokens,
			InputTokens: rep.stats.InputTokens,
			CostUnits:   rep.kind.CostUnits,
		}
		if lr, ok := rep.engine.(serving.LoadReporter); ok {
			ls := lr.Load()
			sm.QueueDepth = ls.Outstanding()
			sm.Queued = ls.Queued
			sm.KVTokens = int64(ls.KVTokens)
		}
		g.sampler.Record(sm)
	}
	g.sampler.RecordFleet(fs)
	if g.pendingWork() > 0 {
		g.sim.ScheduleAfter(g.samplerEv, g.sampler.Interval)
	}
}
