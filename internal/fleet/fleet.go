// Package fleet scales serving out: a gateway fronts N independently
// simulated engine replicas — LoongServe cores or any baseline — and
// routes arrivals through pluggable policies. Each replica owns a full
// cluster, KV pool and engine; replicas share nothing but the
// discrete-event clock, exactly the deployment shape of a production
// fleet behind a load balancer.
//
// The gateway additionally models per-replica prefix-KV reuse with one
// cache, the radix cache (radixcache.go). It indexes KV at token-block
// granularity over content-addressed block-hash chains: any shared token
// prefix — a system prompt, a branched conversation trunk, a session's
// own history — is shared block-for-block, and eviction drops leaf blocks
// priced by the cost model's recompute time (GDSF) with TinyLFU admission.
// A cache hit discounts the prefill the replica must simulate to just the
// unseen suffix. This creates the tension the routing policies trade off:
// sticking a session to its warm replica minimizes recomputation,
// spreading minimizes queueing — the same cache-affinity-vs-load balance
// studied by the arodland/loadbalance simulation, here measured in KV
// tokens on the paper's cost model.
// Every affinity policy is a preset of one scored policy, Affinity
// (policy.go): the presets differ only in the load weight, the context
// headroom that picks candidates, token or capability pricing, how score
// ties break and whether session KV may migrate.
//
// The fleet is elastic (gateway.go): replicas can be provisioned at
// runtime (with a warm-up delay before they take traffic) and drained —
// new arrivals stop, in-flight requests finish, and every live session's
// KV migrates to a surviving replica over the inter-node link at the cost
// model's transfer time instead of being dropped and recomputed. The same
// link-vs-recompute tradeoff is available to routing: an Affinity preset
// with migration on may move a session's KV off its overloaded home
// replica when the transfer is cheaper than recomputing the prefix cold.
// The autoscale package closes the loop, growing and shrinking the fleet
// from queue pressure.
//
// Failure is a first-class scenario (faults.go): CrashReplica destroys a
// replica and its resident KV mid-flight — every in-flight request it
// held is recovered onto survivors, re-prefilling only the suffix no
// surviving cache still covers; StallReplica freezes one replica's intake
// (the straggler pathology); DegradeLinks slows every inter-replica
// transfer for a window. The gateway changes replica lifecycle state
// itself. Config.Hedge arms request hedging (hedge.go): a request still
// waiting for its first token past a learned TTFT quantile is duplicated
// onto a second replica, the first finisher wins, and the loser's tokens
// are charged honestly to Result.Hedge. Config.Faults carries a seeded
// workload.Fault schedule that NewGateway stages onto the simulator; the
// run functions' completion check is itself the proof that no request
// was lost.
//
// A fleet is described one way: Config.Groups, a list of (ReplicaKind,
// Count) slices — a homogeneous fleet is one group. NewGateway builds it,
// and each workload feed has one run function — Run for a static trace,
// RunSessions for session scripts (open or closed loop), RunSessionStream
// for a lazily sampled stream — all ending in the same run, completion
// check and Finalize.
package fleet

import (
	"fmt"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/obs"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// Spec describes how to build one replica. NewCluster and NewEngine are
// called once per replica; every replica must get fresh instances (the
// gateway gives each its own environment and KV pool). A Spec is the
// anonymous building block; a named Spec with a derived capability sheet
// is a ReplicaKind (kind.go), and a fleet is built from kinds through
// Config.Groups.
type Spec struct {
	NewEngine  func() serving.Engine
	NewCluster func() (*cluster.Cluster, error)
}

// CacheRadix names the token-block radix cache (see RadixCache), the
// fleet's only prefix cache: block-hash chains share any common token
// prefix, eviction drops leaf blocks priced by the cost model's recompute
// time.
//
// Deprecated: Config.Cache selects nothing; leave it empty.
const CacheRadix = "radix"

// Config controls a fleet run.
type Config struct {
	// Groups is the fleet composition: for each group, Count replicas of
	// Kind, built in group order. A homogeneous fleet is one group, a
	// heterogeneous one several. The first group's kind is the reference
	// configuration for migration pricing and (unless SLOKind overrides)
	// SLO budgets.
	Groups []ReplicaGroup

	// SLOKind, when set, pins every request's latency budget to this
	// kind's reference configuration instead of the first group's — so
	// arms of a heterogeneous comparison (whose first kinds differ) still
	// judge requests against one shared SLO.
	SLOKind *ReplicaKind

	// Policy routes arrivals; nil defaults to LeastLoaded.
	Policy Policy
	// Cache names the prefix cache. Every replica runs the radix cache, so
	// NewGateway accepts only "" and CacheRadix and rejects anything else.
	//
	// Deprecated: the field selects nothing; leave it empty.
	Cache string
	// CacheTokens is each replica's prefix-cache capacity in KV tokens;
	// 0 sizes it to the replica's KV pool capacity.
	CacheTokens int
	// NoAdmission disables the TinyLFU admission filter. Eviction stays
	// GDSF: leaf blocks priced by their recompute time.
	NoAdmission bool
	// Directory publishes the global cache directory: every replica cache
	// reports its residency transitions through an observer shim, which
	// emits them as directory-update events, and a DirectoryAware policy's
	// picks are emitted as content-route events. The caches and the cold
	// tier are the only record of which blocks are resident where, so
	// routing and caching behave the same either way.
	Directory bool
	// ColdTierTokens, when positive, provisions the fleet-shared
	// host-memory cold KV tier: capacity-evicted radix blocks spill there
	// and are fetched back over the interconnect when the link time beats
	// the recompute it displaces. It must hold at least one block
	// (workload.BlockTokens). The tier is its own residency record; it
	// implies Directory, whose shim carries the evictions to it.
	ColdTierTokens int
	// StreamMetrics folds completion records into a metrics.Accumulator
	// (constant memory) instead of retaining every Record: Result.Records
	// stays nil, Result.Acc carries the streamed summary, and session
	// drivers skip Result.Trace for the same reason (nothing remains to
	// join it to). For million-request traces the record slice is the
	// next memory ceiling after the staged timeline removed the event
	// heap's.
	StreamMetrics bool
	// SLOScale is the latency budget multiplier (0 = the paper's 25).
	SLOScale float64

	// Shards is the number of worker goroutines the runner (shard.go)
	// partitions replicas over, round-robin: every replica engine advances
	// on its own private simevent heap in windows between gateway events.
	// 0 and 1 both run inline. Every count produces byte-identical output,
	// for every feed (open or closed loop) and every fleet (static, faulty
	// or autoscaled). Negative counts are rejected.
	Shards int
	// FuseDecode selects nothing. Every replica runs its engine as the
	// kind's Spec builds it, decode-iteration fusion default included:
	// the LoongServe core and ContBatch both fuse (core/fuse.go and
	// baselines/fuse.go hold the proofs). Fusion is observationally exact,
	// so no setting of it changes a record, trace, obs stream or audit. A
	// kind whose NewEngine turns its engine's fusion off — the core's
	// SetDecodeFusion(false), ContBatch's Unfused — is the unfused
	// reference.
	//
	// Deprecated: the field selects nothing; leave it unset.
	FuseDecode bool

	// Hedge enables request hedging: a long prefill still unfinished after a
	// quantile-derived delay is duplicated to a second replica, first
	// finisher wins, and the loser's work is charged to the run honestly
	// (see HedgeConfig and Result.Hedge). The zero value disables hedging.
	Hedge HedgeConfig
	// Faults is a fault schedule (typically workload.GenFaults) that
	// NewGateway stages onto the simulator. Each fault resolves its
	// abstract Slot against the replicas active at fire time, so the
	// schedule composes with any scaling the run performs; unfireable
	// faults (a crash with one active replica left) are counted as
	// skipped, never retried. NewGateway rejects malformed entries (see
	// workload.Fault.Validate).
	Faults []workload.Fault

	// Obs, when non-nil, receives the run's observability event stream:
	// request-lifecycle events (enqueue, route, cache lookup, migrate,
	// finish), replica lifecycle, and — for engines implementing
	// serving.Traceable — engine elastic events with replica attribution.
	// Nil means observability is off; the hot paths then pay exactly one
	// nil check per would-be event (see the AllocsPerRun guards in
	// obs_test.go).
	Obs obs.Sink
	// Sampler, when non-nil with a positive Interval, is driven by the
	// gateway every Interval of simulated time, recording per-replica and
	// fleet-level telemetry time series. Sampling stops by itself when the
	// simulation has no further events.
	Sampler *obs.Sampler
}

// ReplicaStats is the per-replica accounting of one run.
type ReplicaStats struct {
	Kind          string // the replica's ReplicaKind name
	Requests      int
	HitRequests   int   // requests served with a nonzero prefix-cache hit
	HitTokens     int64 // prompt tokens served from cache
	PrefixTokens  int64 // prompt tokens that were reusable in principle
	InputTokens   int64 // full prompt tokens routed here
	CacheEntries  int   // resident cache blocks at end of run
	CacheEvicted  int
	CacheRejected int
}

// MigrationStats aggregates the KV transfers a run performed: drain
// evacuations, in-flight handoffs and policy-directed (routed) moves.
type MigrationStats struct {
	Count  int
	Tokens int64
	Time   time.Duration // total link-transfer time
}

// ScaleEvent is one fleet-elasticity event, timestamped in simulated time.
type ScaleEvent struct {
	At      time.Duration
	Kind    string // "provision", "active", "drain", "migrate", "retire", "crash", "stall", "degrade"
	Replica int
	// ReplicaKind names the kind of the replica the event concerns.
	ReplicaKind string
	// Cause sub-classifies migrate events: "drain" (scale-in evacuation),
	// "handoff" (in-flight completion on a draining replica) or "route"
	// (policy-directed rebalancing). Empty for lifecycle events.
	Cause  string
	Detail string
}

// RoutedMigration reports whether the event is a policy-directed
// rebalancing migration — the frequent kind timelines usually aggregate.
func (e ScaleEvent) RoutedMigration() bool {
	return e.Kind == "migrate" && e.Cause == "route"
}

func (e ScaleEvent) String() string {
	return fmt.Sprintf("%10v  %-9s replica %d  %s", e.At.Round(time.Millisecond), e.Kind, e.Replica, e.Detail)
}

// Result is the outcome of a fleet run.
type Result struct {
	Policy string
	// Records holds every completion record; nil when the run streamed
	// metrics (Config.StreamMetrics), in which case Acc carries the
	// equivalent online summary.
	Records  []metrics.Record
	Acc      *metrics.Accumulator
	Replicas []ReplicaStats

	// Elasticity accounting (zero-valued for static runs that never scale).
	Events     []ScaleEvent
	Migrations MigrationStats
	// Fault-tolerance accounting (zero-valued for runs without injected
	// faults or hedging).
	Faults FaultStats
	Hedge  HedgeStats
	// Cold is the cold-KV-tier accounting (zero-valued unless
	// Config.ColdTierTokens provisioned one).
	Cold ColdStats
	// SimEvents is the number of discrete events the run fired, summed over
	// the gateway's and every replica's heap — the wall-clock-free work
	// measure behind events per second.
	SimEvents uint64
	// ReplicaSeconds integrates provisioned replica count over the run:
	// every replica is charged from provisioning until retirement (or run
	// end) — warm-up and drain time included, exactly what a cluster bill
	// would charge. The cost denominator of cost-normalized goodput.
	ReplicaSeconds float64
	// CostUnitSeconds integrates provisioned *cost units* (GPU-seconds by
	// derivation — see ReplicaKind.CostUnits) over the run. For a
	// homogeneous fleet this is ReplicaSeconds times the kind's cost; for
	// a heterogeneous fleet it is the honest denominator ReplicaSeconds no
	// longer is, because replicas of different kinds cost different
	// amounts to keep alive.
	CostUnitSeconds float64
	// End is the simulated makespan (time of the last event).
	End time.Duration

	// Trace is the emitted request sequence, index i corresponding to
	// request ID i+1. Set by RunSessions and RunSessionStream (where
	// arrivals are generated during the run); nil for trace-replay Run and
	// for streaming runs (Config.StreamMetrics), which retain neither
	// records nor trace.
	Trace []workload.TimedRequest
}

// TokenHitRatio returns cache-served prompt tokens over reusable prompt
// tokens — the prefix-cache effectiveness measure the routing policies
// compete on. 0 when the trace has no reusable prefixes.
func (r *Result) TokenHitRatio() float64 {
	var hit, reusable int64
	for _, rs := range r.Replicas {
		hit += rs.HitTokens
		reusable += rs.PrefixTokens
	}
	if reusable == 0 {
		return 0
	}
	return float64(hit) / float64(reusable)
}

// HitRequestRatio returns the fraction of session requests that found any
// warm prefix.
func (r *Result) HitRequestRatio() float64 {
	hit, total := 0, 0
	for _, rs := range r.Replicas {
		hit += rs.HitRequests
		total += rs.Requests
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// ComputeSavedTokens returns the prefill tokens the fleet did not have to
// recompute thanks to prefix reuse.
func (r *Result) ComputeSavedTokens() int64 {
	var hit int64
	for _, rs := range r.Replicas {
		hit += rs.HitTokens
	}
	return hit
}

// MeanReplicas returns the time-averaged provisioned replica count — the
// cost of the run in replicas. For a static fleet this is simply N.
func (r *Result) MeanReplicas() float64 {
	if r.End <= 0 {
		return float64(len(r.Replicas))
	}
	return r.ReplicaSeconds / r.End.Seconds()
}

// MeanCostUnits returns the time-averaged provisioned cost units — the
// heterogeneous analogue of MeanReplicas.
func (r *Result) MeanCostUnits() float64 {
	if r.End <= 0 {
		return 0
	}
	return r.CostUnitSeconds / r.End.Seconds()
}

// Goodput returns the run's SLO-met requests per second over the arrival
// window, from retained records or the streamed accumulator.
func (r *Result) Goodput() float64 {
	if r.Acc != nil {
		return r.Acc.Goodput()
	}
	return metrics.Goodput(r.Records)
}

// Summary returns the run's metric summary, from retained records or the
// streamed accumulator (see metrics.Accumulator for quantile accuracy).
func (r *Result) Summary() metrics.Summary {
	if r.Acc != nil {
		return r.Acc.Summary()
	}
	return metrics.Summarize(r.Records)
}

// GoodputPerReplica returns cost-normalized goodput: SLO-met requests per
// second, per provisioned replica. Honest only for homogeneous fleets —
// every replica is charged the same regardless of its kind; heterogeneous
// comparisons should use GoodputPerCostUnit.
func (r *Result) GoodputPerReplica() float64 {
	mean := r.MeanReplicas()
	if mean == 0 {
		return 0
	}
	return r.Goodput() / mean
}

// GoodputPerCostUnit returns goodput per provisioned cost unit (GPU by
// derivation): the re-normalization that makes homogeneous and
// heterogeneous fleets — and fleets of different node sizes — comparable
// on one axis. A 2-GPU replica held for a second costs a quarter of an
// 8-GPU replica held for a second, exactly as a cluster bill would say.
func (r *Result) GoodputPerCostUnit() float64 {
	mean := r.MeanCostUnits()
	if mean == 0 {
		return 0
	}
	return r.Goodput() / mean
}

// Run replays a static trace against the fleet cfg.Groups describes, all
// replicas advancing on one discrete-event clock; request i of the trace
// gets ID i+1. Completion records report each request's full prompt
// length (so normalized input latency reflects what the client
// submitted), while the engines simulate only the cache-missed suffix of
// each prompt — the prefill discount of prefix reuse. Deterministic in
// the trace and configuration. Result.Trace stays nil: the caller holds
// the trace.
func Run(trace []workload.TimedRequest, cfg Config) (*Result, error) {
	g, err := NewGateway(cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	for i, tr := range trace {
		r := &serving.Request{
			ID:        kvcache.RequestID(i + 1),
			InputLen:  tr.InputLen,
			OutputLen: tr.OutputLen,
			Arrival:   simevent.Time(tr.Arrival),
			SLOBudget: g.SLOBudget(tr.InputLen, tr.OutputLen),
		}
		g.sim.Stage(r.Arrival, func() { g.Submit(r, tr.Entry) })
	}
	f := &feedBase{g: g, total: len(trace)}
	return f.finish()
}
