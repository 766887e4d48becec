package fleet

import (
	"fmt"
	"sort"
	"time"

	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/obs"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// ReplicaState is a replica's lifecycle position. Replicas are born
// warming (provisioned but not yet routable — model loading, cache
// warm-up), serve traffic while active, stop accepting arrivals while
// draining (in-flight requests finish, resident session KV migrates to
// survivors), and are retired once empty. Retired replicas stop accruing
// replica-seconds. Failed is the abnormal exit: a crash destroys the
// replica's resident KV and kills its in-flight work with no drain — the
// gateway recovers affected requests on survivors (see CrashReplica).
type ReplicaState int

// Replica lifecycle states, in order.
const (
	ReplicaWarming ReplicaState = iota
	ReplicaActive
	ReplicaDraining
	ReplicaRetired
	ReplicaFailed
)

func (s ReplicaState) String() string {
	switch s {
	case ReplicaWarming:
		return "warming"
	case ReplicaActive:
		return "active"
	case ReplicaDraining:
		return "draining"
	case ReplicaRetired:
		return "retired"
	case ReplicaFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ReplicaInfo is the gateway's view of one replica, consumed by
// autoscaling controllers.
type ReplicaInfo struct {
	State ReplicaState
	// Kind names the replica's kind; CostUnits and MaxContext mirror the
	// kind's capability sheet, so kind-aware controllers can weigh
	// drain victims without a kind lookup.
	Kind              string
	CostUnits         float64
	MaxContext        int
	OutstandingTokens int // gateway-accounted in-flight prompt+output tokens
	OutstandingReqs   int
	QueueDepth        int // engine-reported total in-flight when available
	// QueuedReqs is the engine's admission queue: arrived requests not yet
	// admitted into any batch (serving.LoadReporter's Queued). A useful
	// overload signal for engines that admit serially — but beware that
	// admission-eager engines (vLLM-style continuous batching) keep this
	// near zero even under heavy load, which is why the default autoscale
	// controller keys on QueueDepth instead. Engines without LoadReporter
	// fall back to the gateway's outstanding count.
	QueuedReqs int
	CacheUsed  int // resident prefix-KV tokens
}

// replica is one engine plus its private environment, radix prefix
// cache and the gateway's load accounting. It implements ReplicaView.
type replica struct {
	index  int
	kind   *ReplicaKind
	engine serving.Engine
	env    *serving.Env
	radix  *RadixCache

	state         ReplicaState
	provisionedAt simevent.Time
	retiredAt     simevent.Time // also the crash instant for Failed replicas
	migrationsOut int           // KV transfers still in flight off this replica
	migInTokens   int           // KV tokens in flight toward this replica (drain targeting)

	// stalledUntil defers engine arrivals while a stall fault is active —
	// the straggler model request hedging is measured against.
	stalledUntil simevent.Time
	// buf collects this replica's completions and obs events while its
	// engine runs ahead of the gateway, for ordered replay (shard.go).
	buf *shardBuf

	outTokens int // routed prompt+output tokens not yet completed
	outReqs   int
	stats     ReplicaStats
}

// OutstandingTokens implements ReplicaView.
func (rep *replica) OutstandingTokens() int { return rep.outTokens }

// Capability implements ReplicaView: the replica kind's derived sheet.
func (rep *replica) Capability() ReplicaCapability { return rep.kind.Capability() }

// QueueDepth is the in-flight request count: engine-reported when the
// engine implements serving.LoadReporter, else the gateway's accounting.
func (rep *replica) QueueDepth() int {
	if lr, ok := rep.engine.(serving.LoadReporter); ok {
		return lr.Load().Outstanding()
	}
	return rep.outReqs
}

// CachedTokens implements ReplicaView: the usable hit, side-effect free.
// The chain match is bounded by what previous completions inserted, and
// shared system prompts and branched trunks are covered structurally by
// the chain.
func (rep *replica) CachedTokens(req RequestInfo) int {
	return min(req.InputLen, rep.radix.MatchTokens(req.Blocks))
}

// SessionTokens implements ReplicaView: the session-private resident KV,
// which is what a migration could move (shared prompts are excluded — they
// are replicated, not owned). It subtracts the blocks fully covered by the
// shared system prompt from the matched path; blocks shared with a branch
// sibling count as owned by both, a deliberate approximation (either
// branch moving them re-installs them for both).
func (rep *replica) SessionTokens(req RequestInfo) int {
	if req.SessionKey == 0 {
		return 0
	}
	shared := req.SharedLen / rep.radix.BlockTokens() * rep.radix.BlockTokens()
	return max(0, rep.radix.MatchTokens(req.Blocks)-shared)
}

// lookup is CachedTokens with the access recorded (recency, frequency,
// hit counters) — called once, on the replica the policy picked.
func (rep *replica) lookup(req RequestInfo) int {
	return min(req.InputLen, rep.radix.Lookup(req.Blocks))
}

// inflight tracks one routed, unfinished request.
type inflight struct {
	rep       *replica
	entry     workload.Entry
	fullInput int
	effInput  int
	hit       int

	// Original request parameters, retained so crash recovery and hedging
	// can clone the request without the driver's help.
	arrival simevent.Time
	output  int
	slo     time.Duration

	// gen increments on every reuse of this record; deferred closures
	// (hedge timers, stall deferrals) capture it so a recycled record never
	// satisfies a stale guard.
	gen uint64

	// Hedge linkage. A primary with a launched copy carries the copy's ID
	// in hedgeID; the copy carries its primary's ID in hedgeOf (0 = this is
	// a primary) and the primary's replica index in peerRep.
	hedgeID kvcache.RequestID
	hedgeOf kvcache.RequestID
	peerRep int

	// recovered marks a crash-recovery re-submission: its completion is
	// kept out of the hedge TTFT baseline (best effort — the flag rides the
	// direct-delivery path only).
	recovered bool

	// delivered flips when the engine actually receives the request
	// (arriveOrStall may defer it through a stall). A cancelled copy that
	// never reached its engine settles its load inline instead of
	// ghosting — there will never be an engine completion to settle it.
	delivered bool
}

// Gateway is an elastic multi-replica front end on one discrete-event
// clock: it routes requests through a Policy over the currently active
// replicas, provisions new replicas (AddReplica) with a warm-up delay, and
// drains replicas (DrainReplica) by migrating their live sessions' KV to
// survivors over the inter-node link. All state changes happen on
// simulator events, so runs are deterministic.
type Gateway struct {
	sim    *simevent.Sim
	cfg    Config
	policy Policy

	// refKind is the reference kind (the first group's): it prices
	// migrations, cold-tier eviction and (unless Config.SLOKind overrides)
	// SLO budgets, exactly as replica 0 always has for homogeneous fleets.
	// sloKind is the budget reference (Config.SLOKind or refKind). kinds
	// tracks every distinct kind that has built a replica, so event
	// details mention kinds exactly when the fleet is heterogeneous.
	refKind *ReplicaKind
	sloKind *ReplicaKind
	kinds   map[*ReplicaKind]bool

	replicas []*replica
	pending  map[kvcache.RequestID]*inflight

	// ghosts holds cancelled inflights — hedge losers whose engines run to
	// completion regardless (engines cannot cancel). Their completions
	// settle load accounting and are otherwise dropped.
	ghosts map[kvcache.RequestID]*inflight

	// Hedging state: the distribution of observed TTFT seconds per
	// prefilled token, and a memoized quantile of it (recomputed only when
	// the sample count changed).
	hedgeDist metrics.Dist
	hedgeQ    float64
	hedgeQAtN int

	// sessionHome tracks, per session cache key, the replica that currently
	// owns (or is about to receive) the session's KV — the gateway's routing
	// table for migration handoffs.
	sessionHome map[PrefixKey]int

	// sessionChain tracks, per session cache key, the longest block-hash
	// chain any completion of the session has produced — the tree path a
	// migration or drain moves.
	sessionChain map[PrefixKey][]uint64

	// cold is the host-memory spill pool (coldtier.go), nil when off. With
	// Config.Directory on, every replica cache carries a dirShim observer
	// (directory.go) publishing its residency changes.
	cold *coldTier

	// Link-degradation fault window (DegradeLinks): while sim time is
	// before degradeUntil, every link transfer — drains, migrations, cold
	// fetches — costs degradeFactor times its nominal delay, and policies
	// pricing migrations see the same inflated cost.
	degradeUntil  simevent.Time
	degradeFactor float64

	res       *Result
	completed int

	// Hot-path scratch and memoization. activeScratch/viewScratch are
	// rebuilt by every Submit (and only used synchronously within it);
	// flFree recycles inflight records; sloCache memoizes the per-(in, out)
	// SLO budget, which repeats across session turns of similar shape.
	activeScratch []*replica
	viewScratch   []ReplicaView
	flFree        []*inflight
	sloCache      map[[2]int]time.Duration

	// onComplete, when set, is invoked after the gateway's own accounting
	// for every finished request. Only the closed-loop session feed sets
	// it (FeedSessions), to schedule the next turn: the runner bounds its
	// windows by that feed's think times, so any other hook that hands
	// work to an engine sooner than the next pending gateway event would
	// trip the arrival guard.
	onComplete func(e workload.Entry, rec metrics.Record)

	// Observability (obs.go). obsSink/sampler mirror Config.Obs/Sampler;
	// policyLabel caches the policy name so route events never format;
	// samplerEv is the owned recurring sampling event; obsSessions maps
	// session cache keys back to workload session ids for migrate events
	// (maintained only while a sink is attached).
	obsSink     obs.Sink
	policyLabel string
	sampler     *obs.Sampler
	samplerEv   *simevent.Event
	obsSessions map[PrefixKey]int64

	// shard is the runner (shard.go): every replica owns a private
	// simevent heap (rep.env.Sim != g.sim), advanced in windows between
	// gateway events.
	shard *shardRunner
}

// NewGateway builds a gateway from the fleet composition cfg.Groups: for
// each group, Count active replicas of Kind, in group order. The caller
// owns the gateway's simulator: schedule arrivals on it (events that call
// Submit), then call Run and Finalize — or let Run, RunSessions or
// RunSessionStream do all three. Replica engines run on private heaps, so
// that simulator alone advances no replica. The first group's kind is the
// reference configuration for migration pricing and (unless cfg.SLOKind
// overrides) SLO budgets. cfg.Faults is staged last, after every replica
// exists.
func NewGateway(cfg Config, sim *simevent.Sim) (*Gateway, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("fleet: empty fleet composition")
	}
	total := 0
	for i, gr := range cfg.Groups {
		if gr.Kind == nil {
			return nil, fmt.Errorf("fleet: group %d has no kind", i)
		}
		if gr.Kind.Name == "" {
			return nil, fmt.Errorf("fleet: group %d kind has no name", i)
		}
		if gr.Count < 0 {
			return nil, fmt.Errorf("fleet: group %d (%s) has negative count %d", i, gr.Kind.Name, gr.Count)
		}
		total += gr.Count
	}
	if total <= 0 {
		return nil, fmt.Errorf("fleet: composition provisions no replicas")
	}
	if cfg.Policy == nil {
		cfg.Policy = NewLeastLoaded()
	}
	if cfg.SLOScale == 0 {
		cfg.SLOScale = serving.DefaultRunConfig().SLOScale
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 200_000_000
	}
	if cfg.Cache != "" && cfg.Cache != CacheRadix {
		return nil, fmt.Errorf("fleet: unknown cache %q (the radix cache, %q, is the only one)", cfg.Cache, CacheRadix)
	}
	if err := cfg.Hedge.validate(); err != nil {
		return nil, err
	}
	cfg.Hedge = cfg.Hedge.withDefaults()
	if cfg.CacheTokens < 0 {
		return nil, fmt.Errorf("fleet: negative cache capacity %d", cfg.CacheTokens)
	}
	if cfg.ColdTierTokens < 0 {
		return nil, fmt.Errorf("fleet: negative cold-tier capacity %d", cfg.ColdTierTokens)
	}
	if cfg.ColdTierTokens > 0 && cfg.ColdTierTokens < workload.BlockTokens {
		return nil, fmt.Errorf("fleet: cold-tier capacity %d holds no %d-token block", cfg.ColdTierTokens, workload.BlockTokens)
	}
	if cfg.ColdTierTokens > 0 {
		cfg.Directory = true // capacity evictions reach the cold tier through the directory shim
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fleet: negative shard count %d", cfg.Shards)
	}
	for i, f := range cfg.Faults {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: Config.Faults[%d]: %w", i, err)
		}
	}
	sim.MaxEvents = cfg.MaxEvents

	g := &Gateway{
		sim:          sim,
		cfg:          cfg,
		policy:       cfg.Policy,
		refKind:      cfg.Groups[0].Kind,
		kinds:        make(map[*ReplicaKind]bool),
		pending:      make(map[kvcache.RequestID]*inflight),
		ghosts:       make(map[kvcache.RequestID]*inflight),
		sessionHome:  make(map[PrefixKey]int),
		sessionChain: make(map[PrefixKey][]uint64),
		res:          &Result{Policy: cfg.Policy.Name()},
		sloCache:     make(map[[2]int]time.Duration),
	}
	g.shard = &shardRunner{g: g, workers: max(cfg.Shards, 1)}
	if cfg.StreamMetrics {
		g.res.Acc = &metrics.Accumulator{}
	}
	g.attachObs()
	for _, gr := range cfg.Groups {
		for i := 0; i < gr.Count; i++ {
			rep, err := g.newReplica(gr.Kind)
			if err != nil {
				return nil, err
			}
			rep.state = ReplicaActive
		}
	}
	// The reference kind may have provisioned no replica yet (a zero-count
	// first group under autoscaling); resolve it — and the SLO override —
	// by probe so pricing is available before the first scale-up.
	if err := g.refKind.Resolve(); err != nil {
		return nil, err
	}
	g.sloKind = g.refKind
	if cfg.SLOKind != nil {
		if err := cfg.SLOKind.Resolve(); err != nil {
			return nil, err
		}
		g.sloKind = cfg.SLOKind
	}
	if cfg.ColdTierTokens > 0 {
		// Cold-tier eviction is priced at the reference kind: host memory
		// is fleet-shared, so there is no single "local" replica to price
		// against, and homogeneous fleets make the choice exact.
		g.cold = newColdTier(g, cfg.ColdTierTokens, workload.BlockTokens, g.refKind.blockCost)
	}
	for _, f := range cfg.Faults {
		g.sim.Stage(simevent.Time(f.At), func() { g.applyFault(f) })
	}
	return g, nil
}

// hetero reports whether more than one distinct kind has built replicas —
// the switch that adds kind names to lifecycle event details.
func (g *Gateway) hetero() bool { return len(g.kinds) > 1 }

// newReplica constructs and registers the next replica of the given kind
// (initially warming; the caller or activation event flips it active). The
// replica runs its engine as the kind's Spec builds it, fusion default
// included. The first replica of a kind also resolves the kind's
// capability sheet, which then sizes and prices the replica's radix cache.
func (g *Gateway) newReplica(kind *ReplicaKind) (*replica, error) {
	i := len(g.replicas)
	if kind.Spec.NewEngine == nil || kind.Spec.NewCluster == nil {
		return nil, fmt.Errorf("fleet: kind %q needs NewEngine and NewCluster", kind.Name)
	}
	c, err := kind.Spec.NewCluster()
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %d cluster: %w", i, err)
	}
	rep := &replica{
		index:         i,
		kind:          kind,
		engine:        kind.Spec.NewEngine(),
		state:         ReplicaWarming,
		provisionedAt: g.sim.Now(),
	}
	rep.stats.Kind = kind.Name
	// The engine lives on a private heap that starts at the gateway's
	// present, and reports completions (and, below, obs events) into the
	// replica's buffer for the runner to replay (shard.go).
	rs := simevent.New()
	rs.MaxEvents = g.cfg.MaxEvents
	rs.AdvanceTo(g.sim.Now())
	rep.buf = &shardBuf{}
	rep.env = &serving.Env{
		Sim:      rs,
		Cluster:  c,
		CM:       costmodel.New(c.Model, c.HW),
		Pool:     c.NewPool(),
		Complete: func(r *serving.Request) { rep.buf.complete(rs.Now(), r) },
	}
	if g.obsSink != nil {
		// Engines that can emit their elastic events do so into the
		// replica's buffer with this replica's attribution, before Init so
		// nothing is missed. A crash marks the buffer dead, which silences
		// the engine's remaining simulated events without an engine-side
		// cancel API.
		if tr, ok := rep.engine.(serving.Traceable); ok {
			tr.AttachObsSink(rep.buf, rep.index)
		}
	}
	if err := rep.engine.Init(rep.env); err != nil {
		return nil, fmt.Errorf("fleet: replica %d init: %w", i, err)
	}
	if !kind.resolved {
		// The kind prices on the gateway with a cost model of its own:
		// rep.env.CM belongs to the engine, which may be running on a
		// worker while another fleet sharing the kind prices with it.
		kind.resolveFrom(c, costmodel.New(c.Model, c.HW), rep.engine)
	}
	cacheCap := g.cfg.CacheTokens
	if cacheCap == 0 {
		cacheCap = kind.KVCapacity
	}
	rep.radix = NewRadixCache(cacheCap, workload.BlockTokens, !g.cfg.NoAdmission, kind.blockCost)
	if g.cfg.Directory {
		rep.radix.setObserver(&dirShim{g: g, rep: rep})
	}
	g.kinds[kind] = true
	g.replicas = append(g.replicas, rep)
	g.shard.live = append(g.shard.live, rep)
	return rep, nil
}

// PolicyName returns the routing policy's name.
func (g *Gateway) PolicyName() string { return g.policy.Name() }

// Completed returns the number of finished requests.
func (g *Gateway) Completed() int { return g.completed }

// SLOBudget returns the latency budget the gateway assigns a request, on
// the single-replica reference configuration (0 when SLOs are disabled).
// Budgets depend only on (in, out), which repeat heavily across session
// turns, so the unloaded-latency evaluation is memoized.
func (g *Gateway) SLOBudget(in, out int) time.Duration {
	if g.cfg.SLOScale <= 0 {
		return 0
	}
	key := [2]int{in, out}
	if d, ok := g.sloCache[key]; ok {
		return d
	}
	d := g.sloKind.SLOBudget(in, out, g.cfg.SLOScale)
	g.sloCache[key] = d
	return d
}

// MigrationTokenCost implements Migrator: the prefill-token-equivalent
// cost of moving n KV tokens between replicas — transfer time over the
// inter-node link, expressed in tokens the replica could have prefilled in
// that time. A MigrationAware policy migrates when the load gap exceeds
// this cost.
func (g *Gateway) MigrationTokenCost(n int) float64 {
	if n <= 0 {
		return 0
	}
	return g.migrationDelay(n).Seconds() * g.refKind.PrefillRate
}

// MigrationSeconds implements Migrator: the link time to move n KV tokens
// between replicas, in seconds — the denomination capability-aware
// policies score in (their replica speeds differ, so a token-equivalent on
// the reference kind would be ambiguous).
func (g *Gateway) MigrationSeconds(n int) float64 {
	if n <= 0 {
		return 0
	}
	return g.migrationDelay(n).Seconds()
}

// migrationDelay returns the link time to move n KV tokens between two
// replicas (distinct nodes, so the InfiniBand channel), inflated by any
// active link-degradation fault window. Pricing through the same function
// policies consult means a degraded link honestly discourages migrations
// and cold fetches for as long as it lasts.
func (g *Gateway) migrationDelay(n int) time.Duration {
	d := g.refKind.cm.ReactiveMigrationTime(n, g.refKind.ibLink)
	if g.degradeFactor > 1 && g.sim.Now() < g.degradeUntil {
		d = time.Duration(float64(d) * g.degradeFactor)
	}
	return d
}

// ReplicaInfos returns a snapshot of every replica ever provisioned
// (retired ones included, so indices are stable).
func (g *Gateway) ReplicaInfos() []ReplicaInfo {
	out := make([]ReplicaInfo, len(g.replicas))
	for i, rep := range g.replicas {
		queued := rep.outReqs
		if lr, ok := rep.engine.(serving.LoadReporter); ok {
			queued = lr.Load().Queued
		}
		out[i] = ReplicaInfo{
			State:             rep.state,
			Kind:              rep.kind.Name,
			CostUnits:         rep.kind.CostUnits,
			MaxContext:        rep.kind.MaxContext,
			OutstandingTokens: rep.outTokens,
			OutstandingReqs:   rep.outReqs,
			QueueDepth:        rep.QueueDepth(),
			QueuedReqs:        queued,
			CacheUsed:         rep.radix.Used(),
		}
	}
	return out
}

// ActiveReplicas returns the count of replicas currently taking traffic.
func (g *Gateway) ActiveReplicas() int {
	n := 0
	for _, rep := range g.replicas {
		if rep.state == ReplicaActive {
			n++
		}
	}
	return n
}

// ProvisionedReplicas returns the count of replicas currently accruing
// cost: warming, active or draining. Failed replicas, like retired ones,
// have stopped costing anything.
func (g *Gateway) ProvisionedReplicas() int {
	n := 0
	for _, rep := range g.replicas {
		if rep.state != ReplicaRetired && rep.state != ReplicaFailed {
			n++
		}
	}
	return n
}

func (g *Gateway) event(kind, cause string, rep int, format string, args ...any) {
	g.res.Events = append(g.res.Events, ScaleEvent{
		At:          time.Duration(g.sim.Now()),
		Kind:        kind,
		Replica:     rep,
		ReplicaKind: g.replicas[rep].kind.Name,
		Cause:       cause,
		Detail:      fmt.Sprintf(format, args...),
	})
	g.emitLifecycle(kind, rep)
}

// AddReplica provisions a new replica of the given kind, which need not
// be part of the initial composition — the scale-up primitive. The replica
// joins the routable set after the warm-up delay (model load, cache init)
// and accrues replica-seconds from now. Returns the new replica's index.
func (g *Gateway) AddReplica(kind *ReplicaKind, warmup time.Duration) (int, error) {
	if kind == nil {
		return 0, fmt.Errorf("fleet: AddReplica with nil kind")
	}
	rep, err := g.newReplica(kind)
	if err != nil {
		return 0, err
	}
	if g.hetero() {
		g.event("provision", "", rep.index, "kind %s, warm-up %v", kind.Name, warmup)
	} else {
		g.event("provision", "", rep.index, "warm-up %v", warmup)
	}
	if warmup <= 0 {
		g.activate(rep)
	} else {
		g.sim.After(warmup, func() { g.activate(rep) })
	}
	return rep.index, nil
}

// activate flips a warming replica into the routable set.
func (g *Gateway) activate(rep *replica) {
	if rep.state != ReplicaWarming {
		return
	}
	rep.state = ReplicaActive
	g.event("active", "", rep.index, "serving")
}

// activeSet returns the currently routable replicas, index-ordered, in a
// scratch slice valid until the next Submit or lifecycle change.
func (g *Gateway) activeSet() []*replica {
	out := g.activeScratch[:0]
	for _, rep := range g.replicas {
		if rep.state == ReplicaActive {
			out = append(out, rep)
		}
	}
	g.activeScratch = out
	return out
}

// migrationTarget picks the surviving replica to receive migrated KV: the
// active replica with the least outstanding work, in-flight migrations
// included (so a long drain spreads its sessions instead of dogpiling the
// first target). Ties go to the lowest index. Nil when nothing is active.
func (g *Gateway) migrationTarget(exclude *replica) *replica {
	var best *replica
	for _, rep := range g.replicas {
		if rep.state != ReplicaActive || rep == exclude {
			continue
		}
		if best == nil || rep.outTokens+rep.migInTokens < best.outTokens+best.migInTokens {
			best = rep
		}
	}
	return best
}

// transferSession moves `tokens` KV tokens of session key from src toward
// dst, arriving after `delay`: the session is re-homed immediately (so
// subsequent routing and completions aim at dst), the destination cache is
// installed when the transfer lands. `chain` is the tree path being moved,
// and the install replays it as a subtree: shared ancestor blocks the
// destination already holds are deduplicated structurally, missing ones
// are installed alongside the session-private tail. The install is skipped
// if the session re-homed again meanwhile or a fresher (longer) path
// already landed.
func (g *Gateway) transferSession(key PrefixKey, chain []uint64, tokens int, src, dst *replica, delay time.Duration, kind string) {
	g.sessionHome[key] = dst.index
	src.migrationsOut++
	dst.migInTokens += tokens
	g.res.Migrations.Count++
	g.res.Migrations.Tokens += int64(tokens)
	g.res.Migrations.Time += g.migrationDelay(tokens)
	g.event("migrate", kind, src.index, "%s: %d KV tokens -> replica %d (link %v)", kind, tokens, dst.index, g.migrationDelay(tokens).Round(time.Microsecond))
	g.emitMigrate(key, src.index, dst.index, tokens, g.migrationDelay(tokens), kind)
	g.sim.After(delay, func() {
		// Install only when the destination still wants it: the session may
		// have re-homed meanwhile, a fresher completion may already have
		// grown the entry, or the destination may itself have begun
		// draining (its cache dies with it — dropping the copy just costs
		// a recompute later, it loses no session).
		if g.sessionHome[key] == dst.index && dst.state == ReplicaActive && dst.radix.MatchTokens(chain) < tokens {
			dst.radix.Install(chain, tokens)
		}
		src.migrationsOut--
		dst.migInTokens -= tokens
		g.maybeRetire(src)
		g.maybeRetire(dst)
	})
}

// DrainReplica begins removing a replica from the fleet: it immediately
// leaves the routable set, every resident session it owns migrates its KV
// to a surviving replica over the inter-node link (transfers serialize on
// the drain link — the paper's reactive-migration cost, paid once at
// scale-in instead of per-request), blocks no homed session's path covers
// are dropped (they are recomputable or replicated), and in-flight requests
// run to completion with their freshly produced session KV handed off the
// same way. The replica retires — and stops accruing replica-seconds —
// once it is empty.
func (g *Gateway) DrainReplica(idx int) error {
	if idx < 0 || idx >= len(g.replicas) {
		return fmt.Errorf("fleet: drain of unknown replica %d", idx)
	}
	rep := g.replicas[idx]
	if rep.state != ReplicaActive {
		return fmt.Errorf("fleet: replica %d is %v, not active", idx, rep.state)
	}
	if g.ActiveReplicas() <= 1 {
		return fmt.Errorf("fleet: cannot drain the last active replica")
	}
	rep.state = ReplicaDraining
	g.event("drain", "", idx, "%d in-flight requests, %d cached tokens", rep.outReqs, rep.radix.Used())

	// Every session homed here moves its resident tree path — the
	// session-private tail is physically removed, shared ancestors ride
	// along and are deduplicated at the destination. sessionHome is
	// iterated in sorted key order so transfer order (and the serialized
	// link delays) replays identically.
	var delay time.Duration
	keys := make([]PrefixKey, 0, len(g.sessionHome))
	for key, home := range g.sessionHome {
		if home == idx {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		chain := g.sessionChain[key]
		tokens := rep.radix.MatchTokens(chain)
		if tokens == 0 {
			continue
		}
		rep.radix.RemoveExclusive(chain)
		dst := g.migrationTarget(rep)
		if dst == nil {
			continue // unreachable: >= 1 active replica guaranteed above
		}
		delay += g.migrationDelay(tokens)
		g.transferSession(key, chain, tokens, rep, dst, delay, "drain")
	}
	// Whatever remains — shared prompts, stale short copies — dies with the
	// replica; it is recomputable or replicated elsewhere.
	rep.radix.Clear()
	g.maybeRetire(rep)
	return nil
}

// maybeRetire finishes a drain once the replica is empty: no in-flight
// requests, no outbound KV transfers, and no KV (with its deferred
// request) still in flight toward it — retiring under an inbound transfer
// would let a "dead" replica serve work off the books.
func (g *Gateway) maybeRetire(rep *replica) {
	if rep.state != ReplicaDraining || rep.outReqs != 0 || rep.migrationsOut != 0 || rep.migInTokens != 0 {
		return
	}
	rep.state = ReplicaRetired
	rep.retiredAt = g.sim.Now()
	g.event("retire", "", rep.index, "drained")
}

// Submit routes one request. The request's Arrival must equal the current
// simulated time (drivers schedule Submit on arrival events). At least one
// replica is always active: the gateway is born with active replicas and
// DrainReplica refuses to drain the last one.
func (g *Gateway) Submit(r *serving.Request, e workload.Entry) {
	if g.pending[r.ID] != nil {
		panic(fmt.Sprintf("fleet: duplicate request ID %d", r.ID))
	}
	active := g.activeSet()
	if len(active) == 0 {
		panic("fleet: no active replica (gateway invariant violated)")
	}
	info := requestInfo(r.ID, r.InputLen, e)
	g.emitEnqueue(e.SessionID, r)
	g.noteSession(info.SessionKey, e.SessionID)
	views := g.viewScratch[:0]
	for _, rep := range active {
		views = append(views, rep)
	}
	g.viewScratch = views

	idx, from := 0, -1
	if ma, ok := g.policy.(MigrationAware); ok {
		d := ma.PickMigrate(info, views, g)
		idx, from = d.Dest, d.From
	} else {
		idx = g.policy.Pick(info, views)
	}
	if idx < 0 || idx >= len(active) {
		panic(fmt.Sprintf("fleet: policy %s picked replica %d of %d", g.policy.Name(), idx, len(active)))
	}
	rep := active[idx]
	if g.obsSink != nil {
		src := -1
		if from >= 0 && from < len(active) && from != idx {
			src = active[from].index
		}
		g.emitRoute(e.SessionID, r.ID, rep.index, src)
		if da, ok := g.policy.(DirectoryAware); ok && g.cfg.Directory {
			claim, eligible := da.LastPick()
			g.emitContentRoute(e.SessionID, r.ID, rep.index, claim, rep.QueueDepth(), eligible)
		}
	}

	if from >= 0 && from < len(active) && from != idx && info.SessionKey != 0 {
		// The policy chose migrate-over-recompute: move the session's KV to
		// the destination, then deliver the request there — it prefills only
		// the unseen suffix, having paid link time instead of recompute.
		src := active[from]
		chain := g.sessionChain[info.SessionKey]
		if tokens := src.radix.MatchTokens(chain); tokens > 0 {
			src.radix.RemoveExclusive(chain)
			delay := g.migrationDelay(tokens)
			g.transferSession(info.SessionKey, chain, tokens, src, rep, delay, "route")
			g.sim.After(delay, func() {
				if rep.state != ReplicaActive {
					// The destination began draining mid-transfer: take a
					// fresh routing decision instead of delivering to a
					// replica that no longer accepts arrivals.
					g.Submit(r, e)
					return
				}
				g.deliverMaybeFetch(rep, r, e, info)
			})
			return
		}
	}
	g.deliverMaybeFetch(rep, r, e, info)
}

// requestInfo is what a policy sees of request id, whose full prompt is
// inputLen tokens, for the workload entry e.
func requestInfo(id kvcache.RequestID, inputLen int, e workload.Entry) RequestInfo {
	return RequestInfo{
		ID:         id,
		InputLen:   inputLen,
		SessionKey: SessionKey(e.SessionID),
		SharedKey:  GroupKey(e.PromptGroup),
		SharedLen:  e.SharedLen,
		Blocks:     e.InputBlocks(),
	}
}

// deliverMaybeFetch consults the cold tier before delivery: when the
// destination's resident prefix extends by a contiguous cold run and the
// link transfer undercuts the recompute it displaces, the blocks are
// copied over the interconnect first and the request delivers when they
// land. The comparison uses the destination's own cost model for the
// recompute side and the (possibly degraded) migration link for the
// transfer side, so a DegradeLinks window genuinely tilts the decision
// toward recompute. Hedge copies bypass this path — a straggler rescue
// must not queue behind a link transfer.
func (g *Gateway) deliverMaybeFetch(rep *replica, r *serving.Request, e workload.Entry, info RequestInfo) {
	if g.cold == nil || len(info.Blocks) == 0 {
		g.deliver(rep, r, e, info)
		return
	}
	chain := info.Blocks
	n := rep.radix.MatchTokens(chain) / workload.BlockTokens
	k := g.cold.run(chain, n)
	if k == 0 {
		g.deliver(rep, r, e, info)
		return
	}
	link := g.migrationDelay(k * workload.BlockTokens)
	recompute := rep.radix.RecomputeSeconds(n, k)
	if link.Seconds() >= recompute {
		g.deliver(rep, r, e, info)
		return
	}
	g.cold.touchRun(chain, n, k)
	g.emitColdFetch(e.SessionID, r.ID, rep.index, k*workload.BlockTokens, int64(link), int64(recompute*1e9))
	g.sim.After(link, func() {
		if rep.state != ReplicaActive {
			// The destination drained or crashed while the blocks were in
			// flight: re-route from scratch (the request never became
			// pending, so this is a legal re-submission).
			g.Submit(r, e)
			return
		}
		rep.radix.Install(chain[:n+k], (n+k)*workload.BlockTokens)
		g.deliver(rep, r, e, info)
	})
}

// deliver hands a routed request to its replica's engine, applying the
// prefix-cache prefill discount and recording gateway accounting.
func (g *Gateway) deliver(rep *replica, r *serving.Request, e workload.Entry, info RequestInfo) {
	hit := rep.lookup(info)
	full := r.InputLen
	if hit >= full {
		hit = full - 1 // at least one token must be prefilled
	}
	r.InputLen = full - hit
	g.emitCache(e.SessionID, r.ID, rep.index, hit, full)

	fl := g.newInflight()
	*fl = inflight{
		rep: rep, entry: e, fullInput: full, effInput: r.InputLen, hit: hit,
		arrival: r.Arrival, output: r.OutputLen, slo: r.SLOBudget, gen: fl.gen,
	}
	g.pending[r.ID] = fl
	rep.outTokens += fl.effInput + r.OutputLen
	rep.outReqs++
	rep.stats.Requests++
	rep.stats.InputTokens += int64(full)
	rep.stats.PrefixTokens += int64(e.PrefixLen)
	if hit > 0 {
		rep.stats.HitRequests++
		rep.stats.HitTokens += int64(hit)
	}
	g.armHedge(r.ID, fl)
	g.arriveOrStall(rep, r, fl)
}

// complete is every replica's completion sink: it settles gateway
// accounting, inserts the session's chain into the prefix cache (or hands
// the session KV to a survivor when the serving replica is draining), and
// emits the record.
func (g *Gateway) complete(rep *replica, r *serving.Request) {
	if rep.state == ReplicaFailed {
		// The replica crashed; its engine keeps simulating (there is no
		// cancel API) but its completions are fictions — the gateway already
		// recovered or promoted every request it held.
		return
	}
	if g.settleGhost(rep, r) {
		return
	}
	fl := g.pending[r.ID]
	if fl == nil || fl.rep != rep {
		panic(fmt.Sprintf("fleet: replica %d completed unknown request %d", rep.index, r.ID))
	}
	delete(g.pending, r.ID)
	rep.outTokens -= fl.effInput + r.OutputLen
	rep.outReqs--
	// fl stays live through the rest of this function, then recycles.
	defer func() { g.freeInflight(fl) }()

	// The TTFT baseline must fold only never-hedged completions, so sample
	// before the hedge pair resolves (which clears the linkage).
	g.noteTTFT(fl, r)
	// If this request was half of a hedge pair, settle it: the other copy
	// becomes a ghost, and the finish reports under the primary's identity.
	finishID := g.resolveHedge(rep, r, fl)

	// Finish is emitted before the session-KV bookkeeping below so the
	// stream reads causally: a drain-time "handoff" migration moves KV the
	// finished request just produced, and auditors bound migrated tokens by
	// the session context the Finish established. Same timestamp either
	// way — only intra-instant order changes.
	g.emitFinishID(rep.index, fl.entry.SessionID, finishID, r)

	if fl.entry.SessionID != 0 {
		// The finished conversation context is now reusable KV. Its chain
		// heads with the system-prompt blocks, so one Put shares them too.
		key := SessionKey(fl.entry.SessionID)
		chain := fl.entry.Blocks
		// Longest chain wins: a stale out-of-order completion must neither
		// truncate the path a later turn already established nor re-home
		// the session onto the replica holding the stale prefix.
		longest := len(chain) >= len(g.sessionChain[key])
		if len(chain) > len(g.sessionChain[key]) {
			g.sessionChain[key] = chain
		}
		tokens := len(chain) * workload.BlockTokens
		if rep.state == ReplicaActive {
			rep.radix.Put(chain)
			if longest && rep.radix.MatchTokens(chain) > 0 {
				g.sessionHome[key] = rep.index
			}
		} else if dst := g.completionTarget(key, rep); dst != nil && tokens > 0 {
			// Draining: the freshly produced KV rides the drain link to the
			// session's new home so the next turn finds it warm.
			g.transferSession(key, chain, tokens, rep, dst, g.migrationDelay(tokens), "handoff")
		}
	}

	rec := r.Record()
	rec.ID = int64(finishID)
	rec.InputLen = fl.fullInput
	if g.res.Acc != nil {
		g.res.Acc.Add(rec)
	} else {
		g.res.Records = append(g.res.Records, rec)
	}
	g.completed++
	g.maybeRetire(rep)
	if g.onComplete != nil {
		g.onComplete(fl.entry, rec)
	}
}

// completionTarget picks where a draining replica's finished session KV
// should land: the session's migrated home when it is still active,
// otherwise the least-loaded survivor.
func (g *Gateway) completionTarget(key PrefixKey, from *replica) *replica {
	if h, ok := g.sessionHome[key]; ok && h != from.index && g.replicas[h].state == ReplicaActive {
		return g.replicas[h]
	}
	return g.migrationTarget(from)
}

// SessionLocations returns every replica index holding a resident copy of
// the session's KV, with resident token counts — the introspection surface
// drain verification and tests use. A "copy" is the resident prefix of the
// session's longest known chain, shared head blocks included: a replica
// holding only a system prompt other sessions placed counts as a copy.
func (g *Gateway) SessionLocations(sessionID int64) map[int]int {
	out := make(map[int]int)
	chain := g.sessionChain[SessionKey(sessionID)]
	for i, rep := range g.replicas {
		if c := rep.radix.MatchTokens(chain); c > 0 {
			out[i] = c
		}
	}
	return out
}

// Finalize assembles the run's Result: per-replica stats, replica-seconds
// and the makespan. Call after Run.
func (g *Gateway) Finalize() *Result {
	// Replica heaps are private: the makespan is the latest clock anywhere
	// (ghost engines keep draining past the last gateway event) and the
	// event count sums every heap.
	end, fired := g.sim.Now(), g.sim.Fired()
	for _, rep := range g.replicas {
		end = max(end, rep.env.Sim.Now())
		fired += rep.env.Sim.Fired()
	}
	g.res.End = time.Duration(end)
	g.res.SimEvents = fired
	g.res.Replicas = make([]ReplicaStats, len(g.replicas))
	g.res.ReplicaSeconds = 0
	for i, rep := range g.replicas {
		rep.stats.CacheEntries = rep.radix.Len()
		rep.stats.CacheEvicted = rep.radix.Evicted
		rep.stats.CacheRejected = rep.radix.Rejected
		g.res.Replicas[i] = rep.stats
		stop := end
		if rep.state == ReplicaRetired || rep.state == ReplicaFailed {
			stop = rep.retiredAt // retirement or crash instant
		}
		secs := (time.Duration(stop) - time.Duration(rep.provisionedAt)).Seconds()
		g.res.ReplicaSeconds += secs
		g.res.CostUnitSeconds += secs * rep.kind.CostUnits
	}
	if g.cold != nil {
		g.res.Cold = g.cold.stats
	}
	return g.res
}

// OutstandingInputLens returns the full prompt lengths of every routed,
// unfinished request, ascending — the queue's length mix a kind-picking
// autoscaler prices candidate kinds against. Sorted so the snapshot is
// deterministic (pending is a map).
func (g *Gateway) OutstandingInputLens() []int {
	lens := make([]int, 0, len(g.pending))
	for _, fl := range g.pending {
		lens = append(lens, fl.fullInput)
	}
	sort.Ints(lens)
	return lens
}
