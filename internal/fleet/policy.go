package fleet

import (
	"fmt"
	"math/rand"

	"loongserve/internal/kvcache"
)

// RequestInfo is what a routing policy may see about an arriving request:
// identity, prompt length, and the prefix-reuse structure. Output length
// is deliberately absent — a real router does not know it.
type RequestInfo struct {
	ID       kvcache.RequestID
	InputLen int

	SessionKey PrefixKey // 0 = stateless
	SharedKey  PrefixKey // 0 = no shared system prompt
	SharedLen  int       // head tokens of the shared system prompt

	// Blocks is the input-covering block-hash chain (workload.Entry's
	// chain cut at the input boundary) — the lookup key of the replicas'
	// radix prefix caches. nil for stateless requests.
	Blocks []uint64
}

// ReplicaCapability is the static capability sheet of one replica, derived
// from its kind's cluster, engine and cost model (see ReplicaKind) — what
// distinguishes replicas in a heterogeneous fleet beyond their load.
type ReplicaCapability struct {
	Kind string // kind name
	GPUs int
	// CostUnits is the relative cost of keeping the replica alive per
	// second (GPU-seconds by derivation).
	CostUnits float64
	// KVCapacity is the replica's total KV pool in token slots.
	KVCapacity int
	// MaxContext is the largest single sequence the replica's engine can
	// hold — its long-context envelope.
	MaxContext int
	// PrefillRate is tokens/second at the reference 8K prefill, the
	// speed term of capability-aware scores.
	PrefillRate float64
}

// ReplicaView is a policy's read-only window onto one replica.
type ReplicaView interface {
	// OutstandingTokens is the gateway-accounted in-flight token load
	// (prompt + budgeted output of every routed, unfinished request).
	OutstandingTokens() int
	// CachedTokens is the prefix-cache hit the replica would serve for
	// req right now (0 = cold).
	CachedTokens(req RequestInfo) int
	// SessionTokens is the resident KV belonging to req's own session on
	// this replica — the portion a migration could physically move. Shared
	// system-prompt blocks are excluded: they are replicated, not owned.
	SessionTokens(req RequestInfo) int
	// Capability is the replica's static capability sheet. Homogeneous
	// fleets return the same sheet for every replica, which makes every
	// capability-aware score degenerate to its load-and-affinity terms.
	Capability() ReplicaCapability
}

// Policy picks a replica for each arriving request. Implementations must
// be deterministic given the same call sequence; any randomness comes from
// an explicit seed.
type Policy interface {
	Name() string
	Pick(req RequestInfo, replicas []ReplicaView) int
}

// RoundRobin cycles through replicas in order — the zero-information
// baseline.
type RoundRobin struct{ next int }

// NewRoundRobin returns a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "RoundRobin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ RequestInfo, replicas []ReplicaView) int {
	i := p.next % len(replicas)
	p.next++
	return i
}

// LeastLoaded routes to the replica with the fewest outstanding tokens —
// the generalization of the ad-hoc least-loaded router the multi-node
// baselines used.
type LeastLoaded struct{}

// NewLeastLoaded returns a least-outstanding-tokens policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (p *LeastLoaded) Name() string { return "LeastLoaded" }

// Pick implements Policy: lowest outstanding tokens, ties to the lowest
// index (matching the historical baselines router exactly).
func (p *LeastLoaded) Pick(_ RequestInfo, replicas []ReplicaView) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].OutstandingTokens() < replicas[best].OutstandingTokens() {
			best = i
		}
	}
	return best
}

// PowerOfTwoChoices samples two replicas with a seeded RNG and routes to
// the less loaded — load balancing with O(1) state queries and
// near-least-loaded tail behavior (the classic Mitzenmacher result).
type PowerOfTwoChoices struct{ rng *rand.Rand }

// NewPowerOfTwoChoices returns the policy; seed fixes the sampling stream.
func NewPowerOfTwoChoices(seed int64) *PowerOfTwoChoices {
	return &PowerOfTwoChoices{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (p *PowerOfTwoChoices) Name() string { return "PowerOfTwoChoices" }

// Pick implements Policy.
func (p *PowerOfTwoChoices) Pick(_ RequestInfo, replicas []ReplicaView) int {
	n := len(replicas)
	if n == 1 {
		return 0
	}
	a := p.rng.Intn(n)
	b := p.rng.Intn(n - 1)
	if b >= a {
		b++ // sample without replacement
	}
	if replicas[b].OutstandingTokens() < replicas[a].OutstandingTokens() {
		return b
	}
	return a
}

// Migrator is the gateway-side cost oracle handed to MigrationAware
// policies: it converts a KV transfer into the units policy scores are
// denominated in.
type Migrator interface {
	// MigrationTokenCost returns the prefill-token-equivalent cost of
	// moving n KV tokens between two replicas over the fleet interconnect.
	MigrationTokenCost(n int) float64
	// MigrationSeconds returns the same transfer priced in link seconds —
	// the denomination capability-aware policies use, since replicas of
	// different kinds turn seconds into tokens at different rates.
	MigrationSeconds(n int) float64
}

// Decision is a MigrationAware policy's verdict for one request: the
// destination replica, and optionally a source replica whose copy of the
// request's session KV should be migrated to the destination first
// (From == -1 routes without migration).
type Decision struct {
	Dest int
	From int
}

// MigrationAware policies may resolve the affinity-vs-load conflict with a
// third option beyond "stay on the warm replica" and "recompute cold":
// physically move the session's KV to a less-loaded replica when the link
// transfer is cheaper than the recompute it avoids. The gateway executes
// the migration before delivering the request.
type MigrationAware interface {
	Policy
	PickMigrate(req RequestInfo, replicas []ReplicaView, m Migrator) Decision
}

// DirectoryAware policies route by resident-block overlap and explain
// each pick: the overlap claimed at the chosen replica and the number of
// candidates. With Config.Directory on, the gateway publishes that
// explanation as a content-route event beside the directory's residency
// stream. ContentAffinity is the one implementation.
type DirectoryAware interface {
	Policy
	LastPick() (claim, eligible int)
}

// DefaultCapabilityHeadroom is the fraction of a replica's MaxContext a
// request's prompt may comfortably occupy before the capability and
// content presets stop routing there: a session needs room to grow across
// turns and to coexist with other residents, so a prompt at, say, 80% of
// a small replica's whole pool belongs on a longer-context kind even
// though it would technically fit.
const DefaultCapabilityHeadroom = 0.5

// Affinity is the fleet's scored routing policy: it prices serving the
// request on every candidate replica and routes to the cheapest. The
// affinity presets (NewPrefixAffinity, NewMigratingAffinity,
// NewCapabilityAffinity, NewContentAffinity) differ only in its terms:
//
//   - Score: the prefill tokens the replica must compute (the prompt minus
//     its resident overlap, ReplicaView.CachedTokens) plus a load weight
//     times its outstanding tokens — or, capability-priced, those tokens
//     as seconds at the replica kind's prefill rate, weighted by the
//     kind's cost units.
//   - Candidates: the replicas whose MaxContext the prompt fits within a
//     headroom fraction (every replica, without one); when none fits, the
//     widest envelope class — the one that fails least badly — scored so
//     an oversize tail spreads, ties to the lowest index.
//   - Ties: the hashed session home, which plants a new session — and its
//     prompt group — on a stable replica so the turns that follow find
//     warm caches; the content preset prefers the larger overlap first.
//   - Migration: optionally, moving the session's KV off its warmest
//     holder when the link transfer beats the recompute it avoids —
//     LoongServe's choice of KV movement over recomputation, across
//     replicas.
//
// A sufficiently loaded home loses to a cold, idle replica: the
// cache-affinity-vs-load balance the arodland/loadbalance simulation
// studies.
type Affinity struct {
	name       string
	loadWeight float64 // score units per outstanding token, relative to a prefill token
	headroom   float64 // comfortable fraction of MaxContext; 0 = every replica fits
	priced     bool    // capability pricing: cost-weighted service seconds
	migrate    bool
	overlapTie bool // score ties prefer the larger overlap before the home

	// The last pick's explanation (ContentAffinity.LastPick): the overlap
	// claimed at the chosen replica and the number of candidates.
	lastClaim, lastEligible int
}

// NewPrefixAffinity returns the token-priced preset: every replica is a
// candidate, load weight 1 (a queued token costs as much as a cold prefill
// token), no migration.
func NewPrefixAffinity() *Affinity { return &Affinity{name: "PrefixAffinity", loadWeight: 1} }

// NewMigratingAffinity returns PrefixAffinity with migration on, the link
// transfer priced by the gateway in prefill-token equivalents: a session
// moves exactly when the load gap between its warm home and an idle
// replica exceeds the transfer cost.
func NewMigratingAffinity() *Affinity {
	return &Affinity{name: "MigratingAffinity", loadWeight: 1, migrate: true}
}

// NewCapabilityAffinity returns the heterogeneity-aware preset: scores are
// cost-weighted service seconds, candidates are the replicas the prompt
// fits within DefaultCapabilityHeadroom, and session KV migrates onto such
// replicas when the link seconds beat the recompute they avoid. Long
// prompts flow to long-context kinds because small kinds are not
// candidates or are slow; short prompts flow to cheap kinds because a
// short request takes nearly the same time anywhere and the cheap
// replica's seconds cost less. On a homogeneous fleet the score is
// PrefixAffinity's times a constant, so the two pick alike for prompts
// that fit.
func NewCapabilityAffinity() *Affinity {
	return &Affinity{name: "CapabilityAffinity", loadWeight: 1, headroom: DefaultCapabilityHeadroom, priced: true, migrate: true}
}

// Name implements Policy.
func (p *Affinity) Name() string { return p.name }

// Pick implements Policy.
func (p *Affinity) Pick(req RequestInfo, replicas []ReplicaView) int {
	best, _ := p.pick(req, replicas)
	return best
}

// fits reports whether req's prompt comfortably fits r's context envelope.
func (p *Affinity) fits(req RequestInfo, r ReplicaView) bool {
	return p.headroom == 0 || float64(req.InputLen) <= p.headroom*float64(r.Capability().MaxContext)
}

// score prices serving req on r with overlap tokens resident there, plus
// extra (a pending migration's link cost, in the score's units).
func (p *Affinity) score(req RequestInfo, overlap int, r ReplicaView, extra float64) float64 {
	miss := float64(max(req.InputLen-overlap, 0))
	if !p.priced {
		return miss + extra + p.loadWeight*float64(r.OutstandingTokens())
	}
	c := r.Capability()
	rate := c.PrefillRate
	if rate <= 0 {
		rate = 1
	}
	return ((miss+p.loadWeight*float64(r.OutstandingTokens()))/rate + extra) * c.CostUnits
}

// pick returns the cheapest candidate and its score.
func (p *Affinity) pick(req RequestInfo, replicas []ReplicaView) (int, float64) {
	fallback, widest := true, 0
	for _, r := range replicas {
		if p.fits(req, r) {
			fallback = false
			break
		}
		widest = max(widest, r.Capability().MaxContext)
	}
	home := homeIndex(req, len(replicas))
	if fallback {
		home = -1 // fallback ties go to the lowest index
	}
	best, bestScore, bestOverlap := -1, 0.0, 0
	p.lastEligible = 0
	for i, r := range replicas {
		if fallback {
			if r.Capability().MaxContext != widest {
				continue
			}
		} else if !p.fits(req, r) {
			continue
		}
		p.lastEligible++
		o := r.CachedTokens(req)
		s := p.score(req, o, r, 0)
		better := best == -1 || s < bestScore
		if !better && s == bestScore {
			if p.overlapTie && !fallback && o != bestOverlap {
				better = o > bestOverlap
			} else {
				better = i == home
			}
		}
		if better {
			best, bestScore, bestOverlap = i, s, o
		}
	}
	p.lastClaim = bestOverlap
	return best, bestScore
}

// PickMigrate implements MigrationAware. With migration on, the replica
// holding the most of the session's KV may hand it to another replica that
// fits, when serving there with the transfer paid beats the best stay by
// more than the transfer itself: without that hysteresis, marginal load
// gaps make sessions ping-pong between replicas, each bounce paying the
// link for nothing.
func (p *Affinity) PickMigrate(req RequestInfo, replicas []ReplicaView, m Migrator) Decision {
	best, bestScore := p.pick(req, replicas)
	stay := Decision{Dest: best, From: -1}
	if !p.migrate || req.SessionKey == 0 || len(replicas) < 2 {
		return stay
	}
	src, cached := -1, 0
	for i, r := range replicas {
		if c := r.SessionTokens(req); c > cached {
			src, cached = i, c
		}
	}
	if src < 0 || src == best {
		return stay
	}
	var cost float64
	if p.priced {
		cost = m.MigrationSeconds(cached)
	} else {
		cost = m.MigrationTokenCost(cached)
	}
	to, toScore := -1, 0.0
	for i, r := range replicas {
		if i == src || !p.fits(req, r) {
			continue
		}
		if s := p.score(req, cached, r, cost); to == -1 || s < toScore {
			to, toScore = i, s
		}
	}
	if to < 0 {
		return stay
	}
	hysteresis := cost
	if p.priced {
		hysteresis *= replicas[to].Capability().CostUnits
	}
	if toScore+hysteresis < bestScore {
		return Decision{Dest: to, From: src}
	}
	return stay
}

// ContentAffinity is cache-content-aware routing: the Affinity preset
// built around resident-block overlap. Each replica's overlap is the
// request's block chain matched against its resident blocks; the score
// adds 0.4 times its outstanding tokens, candidates fit within
// DefaultCapabilityHeadroom, and score ties prefer the larger overlap,
// then the home.
//
// The overlap is the one the global cache directory would report at that
// replica: the directory's residency stream (Config.Directory) is
// published by the same cache the overlap is read from, so the two agree
// by construction. The contrast with PrefixAffinity is the weighting:
// overlap dominates load.
type ContentAffinity struct{ Affinity }

// NewContentAffinity returns the content preset. Its low load weight is
// deliberate: resident overlap is the signal this policy exists to
// exploit, so load only breaks near-ties rather than dragging requests off
// their warm replicas; at load weight 1 the policy converges on
// PrefixAffinity's placements.
func NewContentAffinity() *ContentAffinity {
	return &ContentAffinity{Affinity{name: "ContentAffinity", loadWeight: 0.4, headroom: DefaultCapabilityHeadroom, overlapTie: true}}
}

// LastPick explains the most recent pick, for the gateway's content-route
// event: the overlap tokens claimed at the chosen replica and how many
// replicas were candidates.
func (p *ContentAffinity) LastPick() (claim, eligible int) { return p.lastClaim, p.lastEligible }

// homeIndex hashes the request's stickiest key (its session, else its
// shared prompt) to a replica slot; -1 for a stateless request.
func homeIndex(req RequestInfo, n int) int {
	key := req.SessionKey
	if key == 0 {
		key = req.SharedKey
	}
	if key == 0 {
		return -1
	}
	return int(mix64(uint64(key)) % uint64(n))
}

// ModuloHash routes every request by hashing its stickiest key modulo the
// replica count — the classic consistent-bucket baseline: perfect session
// stickiness, zero load awareness, and a reshuffle of every home whenever
// the active set changes size. It is the degenerate endpoint of
// cache-aware routing (affinity with no load term) and the natural
// baseline for the cache-directory experiment.
type ModuloHash struct{}

// NewModuloHash returns the policy.
func NewModuloHash() *ModuloHash { return &ModuloHash{} }

// Name implements Policy.
func (p *ModuloHash) Name() string { return "ModuloHash" }

// Pick implements Policy.
func (p *ModuloHash) Pick(req RequestInfo, replicas []ReplicaView) int {
	if home := homeIndex(req, len(replicas)); home >= 0 {
		return home
	}
	return int(mix64(uint64(req.ID)) % uint64(len(replicas))) // stateless: spread by request identity
}

// ByName returns a fresh policy instance for a CLI-facing name.
func ByName(name string, seed int64) (Policy, error) {
	switch name {
	case "roundrobin", "rr":
		return NewRoundRobin(), nil
	case "leastloaded", "ll":
		return NewLeastLoaded(), nil
	case "p2c", "poweroftwo":
		return NewPowerOfTwoChoices(seed), nil
	case "affinity", "prefix":
		return NewPrefixAffinity(), nil
	case "migrate", "migrating":
		return NewMigratingAffinity(), nil
	case "capability", "cap":
		return NewCapabilityAffinity(), nil
	case "content", "directory":
		return NewContentAffinity(), nil
	case "modulo", "hash":
		return NewModuloHash(), nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (want roundrobin, leastloaded, p2c, affinity, migrate, capability, content or modulo)", name)
}

// AllPolicies returns one fresh instance of every load/affinity policy, in
// presentation order. The capability preset is deliberately not included:
// on the homogeneous fleets this set is compared on it picks as
// PrefixAffinity does for every prompt that fits, so the historical
// comparison tables keep their exact rows; heterogeneous comparisons add
// it explicitly. ContentAffinity and ModuloHash are likewise excluded for
// the same table-stability reason — the cache-directory experiment
// compares them explicitly.
func AllPolicies(seed int64) []Policy {
	return []Policy{
		NewRoundRobin(),
		NewLeastLoaded(),
		NewPowerOfTwoChoices(seed),
		NewPrefixAffinity(),
		NewMigratingAffinity(),
	}
}
