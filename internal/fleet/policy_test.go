package fleet

import "testing"

// fakeReplica is a scriptable ReplicaView for policy unit tests. The zero
// value reports a generous uniform capability so capability-blind tests
// behave as on a homogeneous fleet.
type fakeReplica struct {
	tokens  int
	cached  int
	session int // session-owned portion of cached (0 = none movable)
	cap     ReplicaCapability
}

func (f *fakeReplica) OutstandingTokens() int        { return f.tokens }
func (f *fakeReplica) CachedTokens(RequestInfo) int  { return f.cached }
func (f *fakeReplica) SessionTokens(RequestInfo) int { return f.session }

func (f *fakeReplica) Capability() ReplicaCapability {
	if f.cap.MaxContext == 0 {
		return ReplicaCapability{Kind: "fake", GPUs: 8, CostUnits: 8, KVCapacity: 1 << 20, MaxContext: 1 << 20, PrefillRate: 50_000}
	}
	return f.cap
}

func views(fs ...*fakeReplica) []ReplicaView {
	out := make([]ReplicaView, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	vs := views(&fakeReplica{}, &fakeReplica{}, &fakeReplica{})
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := p.Pick(RequestInfo{}, vs); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastLoadedPicksMinTieLowestIndex(t *testing.T) {
	p := NewLeastLoaded()
	if got := p.Pick(RequestInfo{}, views(&fakeReplica{tokens: 5}, &fakeReplica{tokens: 3}, &fakeReplica{tokens: 9})); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	if got := p.Pick(RequestInfo{}, views(&fakeReplica{tokens: 3}, &fakeReplica{tokens: 3})); got != 0 {
		t.Fatalf("tie pick = %d, want 0", got)
	}
}

func TestPowerOfTwoChoices(t *testing.T) {
	// Deterministic in seed.
	a := NewPowerOfTwoChoices(11)
	b := NewPowerOfTwoChoices(11)
	vs := views(&fakeReplica{tokens: 4}, &fakeReplica{tokens: 1}, &fakeReplica{tokens: 7}, &fakeReplica{tokens: 2})
	for i := 0; i < 50; i++ {
		if got, want := a.Pick(RequestInfo{}, vs), b.Pick(RequestInfo{}, vs); got != want {
			t.Fatalf("pick %d diverged: %d vs %d", i, got, want)
		}
	}
	// Single replica short-circuits.
	if got := a.Pick(RequestInfo{}, views(&fakeReplica{})); got != 0 {
		t.Fatalf("single-replica pick = %d", got)
	}
	// The heaviest replica must never win a pairwise comparison it is in:
	// over many picks with distinct loads, index 2 (load 7) shows up only
	// if both samples land on it — never, since sampling is without
	// replacement.
	p := NewPowerOfTwoChoices(7)
	for i := 0; i < 500; i++ {
		if got := p.Pick(RequestInfo{}, vs); got == 2 {
			t.Fatal("power-of-two picked the strictly heaviest of its pair")
		}
	}
}

func TestPrefixAffinityPrefersWarmReplica(t *testing.T) {
	p := NewPrefixAffinity()
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5)}
	// Replica 2 holds the session's prefix; equal load elsewhere.
	vs := views(&fakeReplica{tokens: 100}, &fakeReplica{tokens: 100}, &fakeReplica{tokens: 100, cached: 3500})
	if got := p.Pick(req, vs); got != 2 {
		t.Fatalf("pick = %d, want warm replica 2", got)
	}
}

func TestPrefixAffinitySpillsWhenHomeOverloaded(t *testing.T) {
	p := NewPrefixAffinity()
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5)}
	// The warm replica's queue exceeds what the cache hit saves: the
	// policy must spill to the idle cold replica.
	vs := views(&fakeReplica{tokens: 0}, &fakeReplica{tokens: 10_000, cached: 3500})
	if got := p.Pick(req, vs); got != 0 {
		t.Fatalf("pick = %d, want cold idle replica 0", got)
	}
}

func TestPrefixAffinityHomeIsStable(t *testing.T) {
	p := NewPrefixAffinity()
	req := RequestInfo{InputLen: 1000, SessionKey: SessionKey(7)}
	vs := views(&fakeReplica{}, &fakeReplica{}, &fakeReplica{}, &fakeReplica{})
	first := p.Pick(req, vs)
	for i := 0; i < 10; i++ {
		if got := p.Pick(req, vs); got != first {
			t.Fatalf("cold home drifted: %d then %d", first, got)
		}
	}
	// Different sessions spread over replicas rather than piling on one.
	seen := map[int]bool{}
	for s := int64(1); s <= 64; s++ {
		seen[p.Pick(RequestInfo{InputLen: 1000, SessionKey: SessionKey(s)}, vs)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("64 cold sessions landed on only %d of 4 replicas", len(seen))
	}
	// Stateless requests with equal everything fall back to index 0.
	if got := p.Pick(RequestInfo{InputLen: 1000}, vs); got != 0 {
		t.Fatalf("stateless cold pick = %d", got)
	}
}

func TestByNameAndAllPolicies(t *testing.T) {
	for _, name := range []string{"roundrobin", "rr", "leastloaded", "ll", "p2c", "poweroftwo", "affinity", "prefix", "migrate", "migrating"} {
		p, err := ByName(name, 1)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
	all := AllPolicies(1)
	if len(all) != 5 {
		t.Fatalf("AllPolicies returned %d policies", len(all))
	}
	names := map[string]bool{}
	for _, p := range all {
		names[p.Name()] = true
	}
	if len(names) != len(all) {
		t.Fatalf("policy names not distinct: %v", names)
	}
}

// fixedMigrator prices every transfer at a constant token cost (and the
// equivalent seconds at a 10K-token/s reference rate).
type fixedMigrator struct{ cost float64 }

func (m fixedMigrator) MigrationTokenCost(int) float64 { return m.cost }
func (m fixedMigrator) MigrationSeconds(int) float64   { return m.cost / 10_000 }

func TestMigratingAffinityDecisions(t *testing.T) {
	p := NewMigratingAffinity()
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5)}

	// Warm home lightly loaded: stay, no migration.
	vs := views(&fakeReplica{tokens: 100, cached: 3500, session: 3500}, &fakeReplica{tokens: 0})
	d := p.PickMigrate(req, vs, fixedMigrator{cost: 500})
	if d.Dest != 0 || d.From != -1 {
		t.Fatalf("lightly loaded home: got %+v, want stay on 0", d)
	}

	// Warm home badly overloaded, cheap link: migrate the KV to the idle
	// replica instead of recomputing 3500 tokens there.
	vs = views(&fakeReplica{tokens: 50_000, cached: 3500, session: 3500}, &fakeReplica{tokens: 0})
	d = p.PickMigrate(req, vs, fixedMigrator{cost: 500})
	if d.Dest != 1 || d.From != 0 {
		t.Fatalf("overloaded home, cheap link: got %+v, want migrate 0->1", d)
	}

	// Same overload but the link costs more than the recompute it saves:
	// spill cold, no migration.
	d = p.PickMigrate(req, vs, fixedMigrator{cost: 10_000})
	if d.Dest != 1 || d.From != -1 {
		t.Fatalf("expensive link: got %+v, want cold spill to 1", d)
	}

	// Stateless requests never migrate.
	d = p.PickMigrate(RequestInfo{InputLen: 1000}, vs, fixedMigrator{})
	if d.From != -1 {
		t.Fatalf("stateless request migrated: %+v", d)
	}

	// Single replica short-circuits.
	d = p.PickMigrate(req, views(&fakeReplica{cached: 3500, session: 3500}), fixedMigrator{})
	if d.Dest != 0 || d.From != -1 {
		t.Fatalf("single replica: %+v", d)
	}
}

// heteroViews builds one "big" (long-context, expensive, fast) and two
// "small" (cheap, slow, bounded-context) fake replicas.
func heteroViews(bigLoad, smallLoad1, smallLoad2 int) []ReplicaView {
	big := ReplicaCapability{Kind: "big", GPUs: 8, CostUnits: 8, KVCapacity: 900_000, MaxContext: 900_000, PrefillRate: 40_000}
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}
	return views(
		&fakeReplica{tokens: bigLoad, cap: big},
		&fakeReplica{tokens: smallLoad1, cap: small},
		&fakeReplica{tokens: smallLoad2, cap: small},
	)
}

func TestCapabilityAffinityRoutesLongToBig(t *testing.T) {
	p := NewCapabilityAffinity()
	// 80K prompt: beyond half the small kind's envelope, only the big
	// replica is eligible — even when it is the more loaded one.
	req := RequestInfo{InputLen: 80_000}
	if got := p.Pick(req, heteroViews(50_000, 0, 0)); got != 0 {
		t.Fatalf("long prompt routed to replica %d, want big 0", got)
	}
}

func TestCapabilityAffinityRoutesShortToCheap(t *testing.T) {
	p := NewCapabilityAffinity()
	// A chat prompt fits everywhere; idle everywhere: the cheap replica's
	// cost-weighted seconds win (2K/9K*1 << 2K/40K*8).
	req := RequestInfo{InputLen: 2_000}
	if got := p.Pick(req, heteroViews(0, 0, 0)); got == 0 {
		t.Fatal("idle fleet: chat prompt routed to the expensive replica")
	}
}

func TestCapabilityAffinitySpillsUnderLoad(t *testing.T) {
	p := NewCapabilityAffinity()
	// Both small replicas deeply queued: the big replica's expensive
	// seconds become the cheaper option.
	req := RequestInfo{InputLen: 2_000}
	if got := p.Pick(req, heteroViews(0, 500_000, 500_000)); got != 0 {
		t.Fatalf("overloaded cheap fleet: pick = %d, want big 0", got)
	}
}

func TestCapabilityAffinityFallbackMostCapable(t *testing.T) {
	p := NewCapabilityAffinity()
	// Nothing is comfortable (the prompt exceeds every envelope's
	// headroom): the largest envelope wins, load-balancing ties.
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}
	vs := views(
		&fakeReplica{tokens: 90_000, cap: small},
		&fakeReplica{tokens: 10, cap: small},
		&fakeReplica{tokens: 50_000, cap: small},
	)
	if got := p.Pick(RequestInfo{InputLen: 95_000}, vs); got != 1 {
		t.Fatalf("fallback pick = %d, want least-loaded 1", got)
	}
}

func TestCapabilityAffinityHomogeneousMatchesPrefixAffinity(t *testing.T) {
	// On uniform capabilities the capability score is a monotone function
	// of PrefixAffinity's, so the two policies must agree pick for pick.
	ca, pa := NewCapabilityAffinity(), NewPrefixAffinity()
	for s := int64(1); s <= 32; s++ {
		req := RequestInfo{InputLen: 1000 + int(s)*100, SessionKey: SessionKey(s)}
		vs := views(
			&fakeReplica{tokens: int(s) * 37 % 900},
			&fakeReplica{tokens: int(s) * 53 % 900, cached: 500, session: 500},
			&fakeReplica{tokens: int(s) * 71 % 900},
		)
		if got, want := ca.Pick(req, vs), pa.Pick(req, vs); got != want {
			t.Fatalf("session %d: capability picked %d, prefix-affinity %d", s, got, want)
		}
	}
}

func TestCapabilityAffinityMigration(t *testing.T) {
	p := NewCapabilityAffinity()
	req := RequestInfo{InputLen: 4_000, SessionKey: SessionKey(5)}
	big := ReplicaCapability{Kind: "big", GPUs: 8, CostUnits: 8, KVCapacity: 900_000, MaxContext: 900_000, PrefillRate: 40_000}
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}

	// Warm on an overloaded small replica, idle small sibling, cheap link:
	// migrate the session sideways instead of recomputing cold.
	vs := views(
		&fakeReplica{tokens: 0, cap: big},
		&fakeReplica{tokens: 80_000, cached: 3_500, session: 3_500, cap: small},
		&fakeReplica{tokens: 0, cap: small},
	)
	d := p.PickMigrate(req, vs, fixedMigrator{cost: 200})
	if d.From != 1 || d.Dest == 1 {
		t.Fatalf("overloaded warm small: got %+v, want migration off 1", d)
	}

	// Same situation, ruinously expensive link: spill cold, no migration.
	d = p.PickMigrate(req, vs, fixedMigrator{cost: 500_000})
	if d.From != -1 {
		t.Fatalf("expensive link: got %+v, want no migration", d)
	}

	// A long session never migrates onto an ineligible small replica.
	long := RequestInfo{InputLen: 80_000, SessionKey: SessionKey(9)}
	vs = views(
		&fakeReplica{tokens: 600_000, cached: 70_000, session: 70_000, cap: big},
		&fakeReplica{tokens: 0, cap: small},
		&fakeReplica{tokens: 0, cap: small},
	)
	d = p.PickMigrate(long, vs, fixedMigrator{cost: 100})
	if d.Dest != 0 || d.From != -1 {
		t.Fatalf("long session: got %+v, want stay on big 0", d)
	}
}

func TestByNameCapability(t *testing.T) {
	for _, name := range []string{"capability", "cap"} {
		p, err := ByName(name, 1)
		if err != nil || p.Name() != "CapabilityAffinity" {
			t.Fatalf("ByName(%q) = %v, %v", name, p, err)
		}
	}
}

// homeOf is the view slot the affinity presets hash req's stickiest key to.
func homeOf(req RequestInfo, n int) int {
	key := req.SessionKey
	if key == 0 {
		key = req.SharedKey
	}
	return int(mix64(uint64(key)) % uint64(n))
}

// sessionHomedAt returns a session request whose hashed home among n
// replicas is slot want.
func sessionHomedAt(want, n int, req RequestInfo) RequestInfo {
	for s := int64(1); ; s++ {
		req.SessionKey = SessionKey(s)
		if homeOf(req, n) == want {
			return req
		}
	}
}

// TestAffinityPresets pins the rules that tell the four affinity presets
// apart: which candidates compete, how score ties break, where the cached
// overlap is read from, which presets explain their picks for the
// directory's content-route events and which move session KV.
func TestAffinityPresets(t *testing.T) {
	presets := map[string]func() Policy{
		"prefix":     func() Policy { return NewPrefixAffinity() },
		"migrate":    func() Policy { return NewMigratingAffinity() },
		"capability": func() Policy { return NewCapabilityAffinity() },
		"content":    func() Policy { return NewContentAffinity() },
	}
	big := ReplicaCapability{Kind: "big", GPUs: 8, CostUnits: 8, KVCapacity: 200_000, MaxContext: 200_000, PrefillRate: 40_000}
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}

	cold := RequestInfo{InputLen: 1000, SessionKey: SessionKey(7)}
	coldHome := homeOf(cold, 4)
	idle := views(&fakeReplica{}, &fakeReplica{}, &fakeReplica{}, &fakeReplica{})
	// Equal scores: the home slot is cold and idle; the other slot saves
	// 1000 prefill tokens but carries load worth exactly that much at the
	// preset's load weight (1, or 0.4 for content).
	tie := sessionHomedAt(0, 2, RequestInfo{InputLen: 4000})
	overlapTie := func(load int) []ReplicaView {
		return views(&fakeReplica{}, &fakeReplica{cached: 1000, tokens: load})
	}
	// Nothing fits half of any envelope: the two big replicas compete,
	// equally loaded, and the lower index wins although the home is the
	// higher one and the idle small replicas would score lower.
	oversize := sessionHomedAt(2, 4, RequestInfo{InputLen: 150_000})
	oversizeViews := views(
		&fakeReplica{cap: small},
		&fakeReplica{tokens: 10, cap: big},
		&fakeReplica{tokens: 10, cap: big},
		&fakeReplica{cap: small},
	)

	cases := []struct {
		name   string
		preset string
		req    RequestInfo
		vs     []ReplicaView
		want   int
	}{
		{"cold ties go to the home", "prefix", cold, idle, coldHome},
		{"cold ties go to the home", "migrate", cold, idle, coldHome},
		{"cold ties go to the home", "capability", cold, idle, coldHome},
		{"cold ties go to the home", "content", cold, idle, coldHome},
		{"score ties ignore overlap", "prefix", tie, overlapTie(1000), 0},
		{"score ties ignore overlap", "capability", tie, overlapTie(1000), 0},
		{"score ties go to the larger overlap first", "content", tie, overlapTie(2500), 1},
		{"it probes CachedTokens", "content", sessionHomedAt(0, 3, RequestInfo{InputLen: 4000}),
			views(&fakeReplica{}, &fakeReplica{}, &fakeReplica{cached: 3000}), 2},
		{"nothing fits: widest class, lowest index", "capability", oversize, oversizeViews, 1},
	}
	for _, c := range cases {
		p := presets[c.preset]()
		if got := p.Pick(c.req, c.vs); got != c.want {
			t.Errorf("%s: %s: pick %d, want %d", c.preset, c.name, got, c.want)
		}
	}

	// A session warm on a swamped replica beside an idle one, over a cheap
	// link: exactly the migrating presets move it.
	warm := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5)}
	swamped := views(&fakeReplica{tokens: 50_000, cached: 3500, session: 3500}, &fakeReplica{})
	for name, want := range map[string]struct{ directory, migrates bool }{
		"prefix":     {false, false},
		"migrate":    {false, true},
		"capability": {false, true},
		"content":    {true, false},
	} {
		p := presets[name]()
		_, directory := p.(DirectoryAware)
		migrates := false
		if ma, ok := p.(MigrationAware); ok {
			migrates = ma.PickMigrate(warm, swamped, fixedMigrator{cost: 100}).From >= 0
		}
		if directory != want.directory || migrates != want.migrates {
			t.Errorf("%s: DirectoryAware %v, migrates %v; want %v, %v", name, directory, migrates, want.directory, want.migrates)
		}
	}
}

// TestContentFallbackMatchesCapability pins the one rule that changed when
// the affinity policies became presets of one scorer: with no replica
// fitting half its envelope, content routing no longer scores every
// replica but takes capability's fallback, the widest-envelope class with
// ties to the lowest index.
func TestContentFallbackMatchesCapability(t *testing.T) {
	big := ReplicaCapability{Kind: "big", GPUs: 8, CostUnits: 8, KVCapacity: 200_000, MaxContext: 200_000, PrefillRate: 40_000}
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}
	req := sessionHomedAt(2, 4, RequestInfo{InputLen: 150_000})
	vs := views(&fakeReplica{cap: small}, &fakeReplica{tokens: 10, cap: big}, &fakeReplica{tokens: 10, cap: big}, &fakeReplica{cap: small})
	p := NewContentAffinity()
	if got := p.Pick(req, vs); got != 1 {
		t.Fatalf("content fallback picked %d, want the lower-index big replica 1", got)
	}
	if claim, eligible := p.LastPick(); claim != 0 || eligible != 2 {
		t.Fatalf("LastPick = (%d, %d), want (0, 2): only the widest class competes", claim, eligible)
	}
}
