package fleet

import (
	"fmt"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// HedgeConfig tunes request hedging (Config.Hedge). Hedging duplicates a
// straggling request — one whose time-to-first-token has already exceeded a
// high quantile of the observed per-token prefill latency, scaled by its
// own input length — to a second replica. The first copy to finish wins;
// the loser cannot be cancelled (engines have no cancel API) and its work
// is charged to the run as HedgeStats.WastedTokens, so the latency win is
// always priced against the throughput it burned.
type HedgeConfig struct {
	// Quantile of the observed per-prefilled-token TTFT distribution that
	// arms the hedge timer: a request unfinished after
	//   Quantile(q) × its effective input length
	// seconds is considered straggling. 0 disables hedging; typical
	// values are 0.95–0.99.
	Quantile float64
	// MinSamples is how many unhedged completions must be observed before
	// the first hedge can launch (the quantile is noise until then).
	// Defaults to 20 when hedging is on.
	MinSamples int
	// MinInput is the smallest full prompt length worth hedging: short
	// prefills finish before a duplicate could help. Defaults to 64.
	MinInput int
}

func (h HedgeConfig) validate() error {
	if h.Quantile < 0 || h.Quantile >= 1 {
		return fmt.Errorf("fleet: hedge quantile %v outside [0, 1)", h.Quantile)
	}
	if h.MinSamples < 0 || h.MinInput < 0 {
		return fmt.Errorf("fleet: negative hedge thresholds")
	}
	return nil
}

func (h HedgeConfig) withDefaults() HedgeConfig {
	if h.Quantile <= 0 {
		return h
	}
	if h.MinSamples == 0 {
		h.MinSamples = 20
	}
	if h.MinInput == 0 {
		h.MinInput = 64
	}
	return h
}

// HedgeStats accounts a run's hedging honestly: every launch resolves as
// exactly one win or loss, and WastedTokens is the losing copies' work —
// prefilled plus decoded tokens the fleet computed for nothing.
type HedgeStats struct {
	Launched int
	Wins     int // hedge copy finished first (or primary crashed)
	Losses   int // primary finished first, or the hedge's replica crashed
	// WastedTokens is the losing copies' effective prefill + output tokens.
	// A copy cancelled before its engine ever received it (stall-deferred)
	// burned nothing and contributes zero.
	WastedTokens int64
}

// hedgeIDBit tags the synthetic request IDs of hedge copies, far above any
// driver-assigned ID (drivers number from 1). The copy's identity is
// primary-ID | hedgeIDBit, so the pair is self-describing and observability
// can strip the bit to attribute both copies to one request.
const hedgeIDBit kvcache.RequestID = 1 << 40

// noteTTFT feeds the per-token TTFT distribution the hedge delay is drawn
// from. Only clean primary completions count: hedged or recovered requests
// would fold the pathology being defended against into the baseline.
func (g *Gateway) noteTTFT(fl *inflight, r *serving.Request) {
	if g.cfg.Hedge.Quantile <= 0 || fl.effInput <= 0 || fl.hedgeOf != 0 || fl.hedgeID != 0 || fl.recovered {
		return
	}
	ttft := time.Duration(r.FirstToken - r.Arrival).Seconds()
	if ttft <= 0 {
		return
	}
	g.hedgeDist.Add(ttft / float64(fl.effInput))
}

// hedgeDelay returns the straggler threshold for a request prefilling
// effInput tokens, or 0 when hedging cannot arm yet (distribution still
// cold). The quantile is memoized per distribution size — completions are
// far more frequent than quantile changes worth reacting to.
func (g *Gateway) hedgeDelay(effInput int) time.Duration {
	h := g.cfg.Hedge
	if g.hedgeDist.N() < h.MinSamples {
		return 0
	}
	if g.hedgeDist.N() != g.hedgeQAtN {
		g.hedgeQ = g.hedgeDist.Quantile(h.Quantile)
		g.hedgeQAtN = g.hedgeDist.N()
	}
	if g.hedgeQ <= 0 {
		return 0
	}
	return time.Duration(g.hedgeQ * float64(effInput) * float64(time.Second))
}

// armHedge schedules the straggler check for a just-delivered primary.
func (g *Gateway) armHedge(id kvcache.RequestID, fl *inflight) {
	h := g.cfg.Hedge
	if h.Quantile <= 0 || fl.hedgeOf != 0 || fl.fullInput < h.MinInput {
		return
	}
	delay := g.hedgeDelay(fl.effInput)
	if delay <= 0 {
		return
	}
	gen := fl.gen
	g.sim.After(delay, func() { g.maybeHedge(id, fl, gen) })
}

// maybeHedge fires when the hedge timer lands: if the primary is still
// unfinished (and not already hedged — recovery re-submission re-arms its
// own timer), duplicate it to the best other active replica.
func (g *Gateway) maybeHedge(id kvcache.RequestID, fl *inflight, gen uint64) {
	if g.pending[id] != fl || fl.gen != gen || fl.hedgeID != 0 {
		return
	}
	if fl.rep.state == ReplicaFailed {
		return // crash recovery owns this request now
	}
	dst := g.migrationTarget(fl.rep)
	if dst == nil {
		return // nowhere to hedge to
	}
	hid := id | hedgeIDBit
	if g.pending[hid] != nil || g.ghosts[hid] != nil {
		return // a previous life of this ID still has a copy in flight
	}
	fl.hedgeID = hid
	hr := &serving.Request{
		ID:        hid,
		InputLen:  fl.fullInput,
		OutputLen: fl.output,
		Arrival:   fl.arrival,
		SLOBudget: fl.slo,
	}
	info := requestInfo(hid, fl.fullInput, fl.entry)
	g.res.Hedge.Launched++
	elapsed := time.Duration(g.sim.Now() - fl.arrival)
	g.emitHedgeLaunch(fl.entry.SessionID, id, dst.index, fl.rep.index, fl.fullInput, elapsed)
	g.deliverHedge(dst, hr, fl.entry, info, id, fl.rep.index)
}

// deliverHedge is deliver for a hedge copy: same cache lookup and load
// accounting, plus the linkage back to the primary. Split out so deliver's
// fast path never tests hedge-only conditions.
func (g *Gateway) deliverHedge(rep *replica, r *serving.Request, e workload.Entry, info RequestInfo, primary kvcache.RequestID, primaryRep int) {
	hit := rep.lookup(info)
	full := r.InputLen
	if hit >= full {
		hit = full - 1
	}
	r.InputLen = full - hit
	// The lookup is reported under the primary's identity: the synthetic
	// copy ID never appears in the stream.
	g.emitCache(e.SessionID, primary, rep.index, hit, full)

	fl := g.newInflight()
	*fl = inflight{
		rep: rep, entry: e, fullInput: full, effInput: r.InputLen, hit: hit,
		arrival: r.Arrival, output: r.OutputLen, slo: r.SLOBudget,
		gen: fl.gen, hedgeOf: primary, peerRep: primaryRep,
	}
	g.pending[r.ID] = fl
	rep.outTokens += fl.effInput + r.OutputLen
	rep.outReqs++
	g.arriveOrStall(rep, r, fl)
}

// settleGhost closes the books on a cancelled copy whose engine completion
// finally landed: load accounting settles, nothing else happens. Returns
// true when r was a ghost.
func (g *Gateway) settleGhost(rep *replica, r *serving.Request) bool {
	fl := g.ghosts[r.ID]
	if fl == nil {
		return false
	}
	if fl.rep != rep {
		panic(fmt.Sprintf("fleet: replica %d completed ghost %d owned by replica %d", rep.index, r.ID, fl.rep.index))
	}
	delete(g.ghosts, r.ID)
	rep.outTokens -= fl.effInput + r.OutputLen
	rep.outReqs--
	g.freeInflight(fl)
	g.maybeRetire(rep)
	return true
}

// resolveHedge untangles the hedge pair when either copy finishes first.
// Called from complete before any accounting; it returns the ID the finish
// should be reported as (the primary's, always) — and for a losing copy the
// caller has already been diverted through settleGhost, so by the time we
// are here r is the *winner* of its pair (or was never hedged).
func (g *Gateway) resolveHedge(rep *replica, r *serving.Request, fl *inflight) kvcache.RequestID {
	if fl.hedgeOf != 0 {
		// A hedge copy won (or its primary crashed and this copy was
		// promoted). Cancel the primary if it is still in flight.
		if ofl := g.pending[fl.hedgeOf]; ofl != nil {
			g.res.Hedge.WastedTokens += int64(g.cancelCopy(fl.hedgeOf, ofl))
		}
		g.res.Hedge.Wins++
		g.emitHedgeWin(fl.entry.SessionID, fl.hedgeOf, rep.index, fl.peerRep)
		return fl.hedgeOf
	}
	if fl.hedgeID != 0 {
		// The primary won; the hedge copy is cancelled.
		if hfl := g.pending[fl.hedgeID]; hfl != nil {
			loserRep := hfl.rep.index
			burned := g.cancelCopy(fl.hedgeID, hfl)
			g.res.Hedge.Losses++
			g.res.Hedge.WastedTokens += int64(burned)
			g.emitHedgeLose(fl.entry.SessionID, r.ID, loserRep, burned, rep.index)
		}
		fl.hedgeID = 0
	}
	return r.ID
}

// cancelCopy removes a losing copy from pending and returns the tokens it
// burned. A copy its engine already received becomes a ghost — engines
// cannot cancel, so its load settles when the engine completion lands. A
// copy still deferred behind a stall settles inline: its engine will never
// see it, so it burned nothing and no completion is coming.
func (g *Gateway) cancelCopy(id kvcache.RequestID, fl *inflight) int {
	delete(g.pending, id)
	if fl.delivered {
		g.ghosts[id] = fl
		return fl.effInput + fl.output
	}
	fl.rep.outTokens -= fl.effInput + fl.output
	fl.rep.outReqs--
	rep := fl.rep
	g.freeInflight(fl)
	g.maybeRetire(rep)
	return 0
}

// arriveOrStall hands a request to its replica's engine, deferring the
// arrival while a stall fault holds the replica. The deferral re-checks
// liveness on fire: a crash during the stall means recovery has already
// re-routed the work.
func (g *Gateway) arriveOrStall(rep *replica, r *serving.Request, fl *inflight) {
	if rep.stalledUntil <= g.sim.Now() {
		g.arrive(rep, r, fl)
		return
	}
	remaining := time.Duration(rep.stalledUntil - g.sim.Now())
	id, gen := r.ID, fl.gen
	g.sim.After(remaining, func() {
		if g.pending[id] != fl || fl.gen != gen || rep.state == ReplicaFailed {
			return
		}
		if rep.stalledUntil > g.sim.Now() {
			// The stall was extended meanwhile; defer again.
			g.arriveOrStall(rep, r, fl)
			return
		}
		g.arrive(rep, r, fl)
	})
}

// arrive hands a request to its replica's engine. The engine's clock must
// not be ahead of the gateway's: the runner syncs every live replica to the
// gateway event it fires, so an engine ahead means a window overran a
// gateway event that touches engines (shard.go), and the arrival would run
// in the engine's past.
func (g *Gateway) arrive(rep *replica, r *serving.Request, fl *inflight) {
	if at, now := rep.env.Sim.Now(), g.sim.Now(); at > now {
		panic(fmt.Sprintf("fleet: request %d arrives at replica %d at %v, behind its engine clock %v", r.ID, rep.index, now, at))
	}
	fl.delivered = true
	rep.engine.Arrive(r)
}

// newInflight returns a recycled or fresh inflight record with its
// generation advanced past every closure that captured a previous life.
func (g *Gateway) newInflight() *inflight {
	var fl *inflight
	if k := len(g.flFree); k > 0 {
		fl = g.flFree[k-1]
		g.flFree[k-1] = nil
		g.flFree = g.flFree[:k-1]
	} else {
		fl = &inflight{}
	}
	fl.gen++
	return fl
}

// freeInflight recycles a record, invalidating outstanding timer guards.
func (g *Gateway) freeInflight(fl *inflight) {
	fl.gen++
	g.flFree = append(g.flFree, fl)
}
