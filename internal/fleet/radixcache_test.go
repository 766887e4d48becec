package fleet

import (
	"testing"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

const rcB = 256 // block size used throughout these tests

func rc(capBlocks int, admission bool, cost func(start, tokens int) float64) *RadixCache {
	return NewRadixCache(capBlocks*rcB, rcB, admission, cost)
}

// ch builds a chain literal (hash values are opaque to the cache; tests
// encode prefix sharing by reusing leading values).
func ch(hashes ...uint64) []uint64 { return hashes }

func TestRadixCacheBasics(t *testing.T) {
	c := rc(8, false, nil)
	if got := c.Lookup(ch(1, 2, 3)); got != 0 {
		t.Fatalf("cold lookup = %d", got)
	}
	c.Put(ch(1, 2, 3))
	if got := c.Lookup(ch(1, 2, 3)); got != 3*rcB {
		t.Fatalf("lookup = %d, want %d", got, 3*rcB)
	}
	// A longer chain matches only its resident prefix.
	if got := c.MatchTokens(ch(1, 2, 3, 4, 5)); got != 3*rcB {
		t.Fatalf("prefix match = %d, want %d", got, 3*rcB)
	}
	// A diverging chain matches through the shared prefix.
	if got := c.MatchTokens(ch(1, 2, 9)); got != 2*rcB {
		t.Fatalf("diverged match = %d, want %d", got, 2*rcB)
	}
	// Extending a path adds only the new blocks.
	c.Put(ch(1, 2, 3, 4))
	if c.Len() != 4 || c.Used() != 4*rcB {
		t.Fatalf("len %d used %d after extension", c.Len(), c.Used())
	}
	// A sibling branch shares the common prefix physically.
	c.Put(ch(1, 2, 30, 31))
	if c.Len() != 6 {
		t.Fatalf("len %d after branch, want 6 (blocks 1,2 shared)", c.Len())
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits %d misses %d", c.Hits, c.Misses)
	}
	// Empty chains are inert.
	c.Put(nil)
	if got := c.Lookup(nil); got != 0 || c.Len() != 6 {
		t.Fatalf("nil chain leaked: %d len %d", got, c.Len())
	}
}

// TestRadixCacheLeafOnlyEviction: capacity pressure drops leaves, never
// interior blocks — a resident block's whole prefix stays resident.
func TestRadixCacheLeafOnlyEviction(t *testing.T) {
	c := rc(4, false, nil)
	c.Put(ch(1, 2, 3, 4)) // full
	c.Put(ch(1, 2, 50))   // needs one eviction; only leaf is 4
	if c.MatchTokens(ch(1, 2, 3, 4)) != 3*rcB {
		t.Fatal("eviction removed a non-leaf or the wrong leaf")
	}
	if c.MatchTokens(ch(1, 2, 50)) != 3*rcB {
		t.Fatal("new branch not inserted")
	}
	if c.Evicted != 1 || c.Used() != 4*rcB {
		t.Fatalf("evicted %d used %d", c.Evicted, c.Used())
	}
	// Invariant sweep: every resident block's parent chain is resident.
	for h, n := range c.blocks {
		for p := n.parent; p != nil; p = p.parent {
			if c.blocks[p.hash] != p {
				t.Fatalf("block %x has a non-resident ancestor", h)
			}
		}
	}
}

// TestRadixCacheCostPricedEviction: with the cost model attached, the
// cheap-to-recompute shallow leaf is evicted before the expensive deep
// leaf; with flat pricing the hash tie-break picks the other victim. The
// contrast is the point — eviction order is a cost-model decision, not a
// token-count one.
func TestRadixCacheCostPricedEviction(t *testing.T) {
	deepCost := func(start, tokens int) float64 { return float64(start + tokens) }
	c := rc(4, false, deepCost)
	c.Put(ch(5, 6, 7)) // deep path: leaf 7 at depth 2 (expensive)
	c.Put(ch(9))       // shallow path: leaf 9 at depth 0 (cheap)
	c.Lookup(ch(5, 6, 7))
	c.Lookup(ch(9)) // equal recency and frequency
	c.Put(ch(21))   // forces one eviction
	if c.MatchTokens(ch(9)) != 0 {
		t.Fatal("cost-priced eviction kept the cheap shallow leaf")
	}
	if c.MatchTokens(ch(5, 6, 7)) != 3*rcB {
		t.Fatal("cost-priced eviction dropped the expensive deep path")
	}

	// Same sequence with flat pricing: priorities tie, the lower hash
	// (leaf 7) loses instead.
	f := rc(4, false, nil)
	f.Put(ch(5, 6, 7))
	f.Put(ch(9))
	f.Lookup(ch(5, 6, 7))
	f.Lookup(ch(9))
	f.Put(ch(21))
	if f.MatchTokens(ch(5, 6, 7)) != 2*rcB {
		t.Fatalf("flat pricing: deep leaf survived (match %d)", f.MatchTokens(ch(5, 6, 7)))
	}
	if f.MatchTokens(ch(9)) != rcB {
		t.Fatal("flat pricing: shallow leaf evicted despite tie-break")
	}
}

// TestRadixCacheClockAgesStaleBlocks pins the GDSF aging rule: eviction
// advances the clock to the victim's priority, so a once-hot block that is
// never touched again is eventually outranked by a stream of moderately
// used newcomers. With a frozen clock the stale block would be immortal
// (newcomers would forever evict each other instead).
func TestRadixCacheClockAgesStaleBlocks(t *testing.T) {
	c := rc(3, false, nil)
	c.Put(ch(1, 2))
	for i := 0; i < 20; i++ {
		c.Lookup(ch(1, 2)) // hot once; never touched again below
	}
	for i := 0; i < 50; i++ {
		k := uint64(100 + i)
		for j := 0; j < 8; j++ {
			c.Lookup(ch(k))
		}
		c.Put(ch(k))
		if c.MatchTokens(ch(1, 2)) < 2*rcB {
			return // the stale tail aged out
		}
	}
	t.Fatal("stale hot path never evicted: GDSF clock is not advancing")
}

// TestRadixCacheAdmission: TinyLFU at block granularity — a never-seen
// block cannot displace a frequently requested one, until it earns the
// frequency itself.
func TestRadixCacheAdmission(t *testing.T) {
	c := rc(2, true, nil)
	c.Put(ch(1, 2))
	for i := 0; i < 10; i++ {
		c.Lookup(ch(1, 2))
	}
	c.Put(ch(30)) // one-hit wonder: must be rejected
	if c.MatchTokens(ch(30)) != 0 {
		t.Fatal("cold block admitted over hot victim")
	}
	if c.Rejected != 1 {
		t.Fatalf("Rejected = %d", c.Rejected)
	}
	if c.MatchTokens(ch(1, 2)) != 2*rcB {
		t.Fatal("hot path damaged by rejected insertion")
	}
	for i := 0; i < 12; i++ {
		c.Lookup(ch(30))
	}
	c.Put(ch(30))
	if c.MatchTokens(ch(30)) != rcB {
		t.Fatal("now-popular block still rejected")
	}
	// Without admission the same newcomer evicts immediately.
	p := rc(2, false, nil)
	p.Put(ch(1, 2))
	for i := 0; i < 10; i++ {
		p.Lookup(ch(1, 2))
	}
	p.Put(ch(30))
	if p.MatchTokens(ch(30)) != rcB {
		t.Fatal("plain cache should admit unconditionally")
	}
}

// TestRadixCacheRemoveExclusive: removal takes only the session-private
// tail; blocks shared with a sibling branch stay resident.
func TestRadixCacheRemoveExclusive(t *testing.T) {
	c := rc(8, false, nil)
	c.Put(ch(1, 2, 10, 11))
	c.Put(ch(1, 2, 20))
	if freed := c.RemoveExclusive(ch(1, 2, 10, 11)); freed != 2*rcB {
		t.Fatalf("freed %d, want %d (only the exclusive tail)", freed, 2*rcB)
	}
	if c.MatchTokens(ch(1, 2, 20)) != 3*rcB {
		t.Fatal("sibling branch lost shared blocks")
	}
	// Removing the last branch takes the whole path.
	if freed := c.RemoveExclusive(ch(1, 2, 20)); freed != 3*rcB {
		t.Fatalf("freed %d, want %d", freed, 3*rcB)
	}
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatalf("len %d used %d after full removal", c.Len(), c.Used())
	}
	if c.Evicted != 0 {
		t.Fatal("RemoveExclusive counted as eviction")
	}
}

// TestRadixCacheInstallBypassesAdmission: migrated KV lands even when the
// admission filter would reject a Put of the same blocks.
func TestRadixCacheInstallBypassesAdmission(t *testing.T) {
	c := rc(2, true, nil)
	c.Put(ch(1, 2))
	for i := 0; i < 10; i++ {
		c.Lookup(ch(1, 2))
	}
	c.Install(ch(40, 41), 2*rcB)
	if c.MatchTokens(ch(40, 41)) != 2*rcB {
		t.Fatal("install rejected by admission")
	}
	if c.Used() != 2*rcB {
		t.Fatalf("used %d, want %d", c.Used(), 2*rcB)
	}
	// The token limit truncates the installed path.
	d := rc(8, false, nil)
	d.Install(ch(1, 2, 3, 4), 2*rcB)
	if d.MatchTokens(ch(1, 2, 3, 4)) != 2*rcB {
		t.Fatalf("limited install landed %d tokens", d.MatchTokens(ch(1, 2, 3, 4)))
	}
}

// radixConfig is the gateway configuration of the gateway-level tests
// below: a toy fleet under policy p.
func radixConfig(replicas int, p Policy) Config {
	return Config{Groups: toyFleet(replicas), Policy: p}
}

// TestRadixGatewayCrossSessionSharing is the radix cache's point at
// gateway level: a second session whose prompt shares a block prefix with
// a finished first session hits those blocks, although the two sessions
// have distinct keys and no prompt group.
func TestRadixGatewayCrossSessionSharing(t *testing.T) {
	sim := simevent.New()
	g, err := NewGateway(radixConfig(1, NewPrefixAffinity()), sim)
	if err != nil {
		t.Fatal(err)
	}
	// Session 1: 1000 input + 200 output = 4 blocks [1,2,3,4].
	e1 := workload.Entry{InputLen: 1000, OutputLen: 200, SessionID: 1, Blocks: ch(1, 2, 3, 4)}
	r1 := &serving.Request{ID: 1, InputLen: e1.InputLen, OutputLen: e1.OutputLen}
	sim.At(0, func() { g.Submit(r1, e1) })
	// Session 2 arrives later, sharing the first three blocks (e.g. a
	// branch of session 1): input 1100 = 4 input blocks [1,2,3,40].
	e2 := workload.Entry{InputLen: 1100, OutputLen: 100, SessionID: 2, PrefixLen: 900,
		Blocks: ch(1, 2, 3, 40)}
	r2 := &serving.Request{ID: 2, InputLen: e2.InputLen, OutputLen: e2.OutputLen,
		Arrival: simevent.Time(time.Second)}
	sim.At(simevent.Time(time.Second), func() { g.Submit(r2, e2) })
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Completed() != 2 {
		t.Fatalf("%d of 2 completed", g.Completed())
	}
	rs := g.Finalize().Replicas[0]
	if rs.HitRequests != 1 || rs.HitTokens != 3*rcB {
		t.Fatalf("%d hit requests, %d hit tokens; want 1 and %d", rs.HitRequests, rs.HitTokens, 3*rcB)
	}
	// CachedTokens is the overlap every affinity preset scores. On the now
	// warm replica, a request without a block chain claims nothing (a
	// shared prompt key alone is no residency), and a claim caps at the
	// prompt length.
	rep := g.replicas[0]
	noBlocks := RequestInfo{InputLen: 4000, SessionKey: SessionKey(1), SharedKey: GroupKey(2), SharedLen: 2400}
	if got := rep.CachedTokens(noBlocks); got != 0 {
		t.Fatalf("a request without blocks claims %d cached tokens, want 0", got)
	}
	short := RequestInfo{InputLen: 2*rcB + 10, Blocks: ch(1, 2, 3)}
	if got := rep.CachedTokens(short); got != short.InputLen {
		t.Fatalf("a three-block match on a %d-token prompt claims %d, want the prompt length", short.InputLen, got)
	}
}

// TestRadixGatewayDrainMovesSubtrees: draining a radix-mode replica moves
// each homed session's tree path to a survivor — the session stays
// resident fleet-wide with its token count intact, and the drained replica
// retires empty.
func TestRadixGatewayDrainMovesSubtrees(t *testing.T) {
	sim := simevent.New()
	// LeastLoaded ties to the lowest index, so serially submitted requests
	// against an idle fleet all land on replica 0 — deterministic setup.
	g, err := NewGateway(radixConfig(2, NewLeastLoaded()), sim)
	if err != nil {
		t.Fatal(err)
	}
	// Two sessions sharing a 2-block trunk, plus private tails. The second
	// arrives after the first completes, so both sit idle on replica 0.
	entries := []workload.Entry{
		{InputLen: 900, OutputLen: 200, SessionID: 1, Blocks: ch(1, 2, 3, 4)},
		{InputLen: 800, OutputLen: 300, SessionID: 2, Blocks: ch(1, 2, 30, 31)},
	}
	for i, e := range entries {
		e := e
		at := simevent.Time(time.Duration(i) * time.Second)
		r := &serving.Request{ID: kvcache.RequestID(i + 1), InputLen: e.InputLen, OutputLen: e.OutputLen, Arrival: at}
		sim.At(at, func() { g.Submit(r, e) })
	}
	var victims []int
	sim.At(simevent.Time(2*time.Second), func() {
		// Find where the sessions landed; drain that replica.
		locs := g.SessionLocations(1)
		if len(locs) != 1 {
			t.Errorf("session 1 on %d replicas before drain", len(locs))
			return
		}
		for idx := range locs {
			victims = append(victims, idx)
			if err := g.DrainReplica(idx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	if len(victims) != 1 {
		t.Fatal("drain never ran")
	}
	victim := victims[0]
	if st := g.replicas[victim].state; st != ReplicaRetired {
		t.Fatalf("victim is %v, want retired", st)
	}
	if n := g.replicas[victim].radix.Len(); n != 0 {
		t.Fatalf("victim cache still holds %d blocks", n)
	}
	for sid, wantTokens := range map[int64]int{1: 4 * rcB, 2: 4 * rcB} {
		locs := g.SessionLocations(sid)
		if len(locs) != 1 {
			t.Fatalf("session %d on %d replicas after drain: %v", sid, len(locs), locs)
		}
		for idx, got := range locs {
			if idx == victim {
				t.Fatalf("session %d still on drained replica", sid)
			}
			if got != wantTokens {
				t.Fatalf("session %d migrated with %d tokens, want %d", sid, got, wantTokens)
			}
		}
	}
	res := g.Finalize()
	if res.Migrations.Count != 2 {
		t.Fatalf("migrations = %d, want 2 (one per homed session)", res.Migrations.Count)
	}
	// The shared trunk rides along with each path but is stored once at the
	// destination: 2 shared + 2 + 2 private = 6 blocks resident.
	var survivor *replica
	for _, rep := range g.replicas {
		if rep.index != victim {
			survivor = rep
		}
	}
	if survivor.radix.Len() != 6 {
		t.Fatalf("survivor holds %d blocks, want 6 (shared trunk deduplicated)", survivor.radix.Len())
	}
}

// TestRadixGatewayOutOfOrderCompletionKeepsLongestChain: completions of one
// session can land out of order. Here turn 0 dies with a crashed replica
// and is recovered behind turn 1 on the survivor, so the longer turn-1
// chain completes first and the stale turn-0 chain after it. The gateway
// must keep the longer chain as the session's path, so a later drain of
// the session's home moves all of its resident blocks, not the stale
// prefix.
func TestRadixGatewayOutOfOrderCompletionKeepsLongestChain(t *testing.T) {
	sim := simevent.New()
	groups := toyFleet(2)
	g, err := NewGateway(Config{Groups: groups, Policy: NewLeastLoaded()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	const id = 1
	key := SessionKey(id)
	// Turn 0: 1000 + 500 tokens = 5 blocks, a long decode (10ms). Turn 1
	// re-submits that context: 2000 + 10 tokens = 7 blocks, done at 2.2ms.
	turn0 := workload.Entry{InputLen: 1000, OutputLen: 500, SessionID: id, Turn: 0, Blocks: sessionBlocks(id, 1500)}
	turn1 := workload.Entry{InputLen: 2000, OutputLen: 10, SessionID: id, Turn: 1, PrefixLen: 1500, Blocks: sessionBlocks(id, 2010)}
	long := len(turn1.Blocks) * workload.BlockTokens
	// LeastLoaded puts turn 0 on replica 0 and turn 1 on the idle replica 1.
	submitAt(sim, g, 1, turn0, 0)
	submitAt(sim, g, 2, turn1, 0)
	// Replica 0 crashes mid-prefill: turn 0 recovers onto replica 1, queued
	// behind turn 1, and finishes at 13.2ms.
	sim.At(simevent.Time(500*time.Microsecond), func() {
		if err := g.CrashReplica(0); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	sim.At(simevent.Time(20*time.Millisecond), func() {
		if got := len(g.sessionChain[key]); got != len(turn1.Blocks) {
			t.Errorf("session path holds %d blocks after the stale completion, want turn 1's %d", got, len(turn1.Blocks))
		}
		if home := g.sessionHome[key]; home != 1 {
			t.Errorf("session homed on replica %d, want 1", home)
		}
		// Scale up, then drain the home: the session's path moves.
		if _, err := g.AddReplica(groups[0].Kind, 0); err != nil {
			t.Errorf("add replica: %v", err)
		}
		if err := g.DrainReplica(1); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Completed() != 2 {
		t.Fatalf("%d of 2 requests completed", g.Completed())
	}
	res := g.Finalize()
	if res.Faults.RecoveredRequests != 1 {
		t.Fatalf("%d recovered requests, want turn 0 recovered", res.Faults.RecoveredRequests)
	}
	if res.Migrations.Count != 1 || res.Migrations.Tokens != int64(long) {
		t.Fatalf("drain moved %d sessions with %d tokens, want 1 with turn 1's %d", res.Migrations.Count, res.Migrations.Tokens, long)
	}
	if locs := g.SessionLocations(id); len(locs) != 1 || locs[2] != long {
		t.Fatalf("session resident at %v after the drain, want %d tokens on replica 2", locs, long)
	}
}

// TestRadixGatewayStaleCompletionKeepsHome: a session's turns can finish
// out of order on different replicas. Turn 1 (7 blocks) finishes on
// replica 1, then the delayed turn 0 (5 blocks) on replica 0. The stale
// completion must not re-home the session onto replica 0: the home stays
// with the longest chain, so draining replica 1 migrates the session's
// 1,792 tokens instead of dropping its newest blocks with the wipe.
func TestRadixGatewayStaleCompletionKeepsHome(t *testing.T) {
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(3), Policy: NewLeastLoaded()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	const id = 1
	key := SessionKey(id)
	// Turn 0: 1000 + 500 tokens = 5 blocks with a long decode; turn 1
	// re-submits that context: 2000 + 10 tokens = 7 blocks, done first.
	turn0 := workload.Entry{InputLen: 1000, OutputLen: 500, SessionID: id, Turn: 0, Blocks: sessionBlocks(id, 1500)}
	turn1 := workload.Entry{InputLen: 2000, OutputLen: 10, SessionID: id, Turn: 1, PrefixLen: 1500, Blocks: sessionBlocks(id, 2010)}
	long := len(turn1.Blocks) * workload.BlockTokens
	// LeastLoaded puts turn 0 on replica 0 and turn 1 on the idle replica 1.
	submitAt(sim, g, 1, turn0, 0)
	submitAt(sim, g, 2, turn1, 0)
	sim.At(simevent.Time(20*time.Millisecond), func() {
		if g.Completed() != 2 {
			t.Errorf("%d of 2 turns done before the drain", g.Completed())
		}
		if home := g.sessionHome[key]; home != 1 {
			t.Errorf("session homed on replica %d after the stale completion, want 1", home)
		}
		if err := g.DrainReplica(1); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	res := g.Finalize()
	if res.Migrations.Count != 1 || res.Migrations.Tokens != int64(long) {
		t.Fatalf("drain moved %d sessions with %d tokens, want 1 with turn 1's %d", res.Migrations.Count, res.Migrations.Tokens, long)
	}
	if locs := g.SessionLocations(id); locs[g.sessionHome[key]] != long {
		t.Fatalf("session resident at %v with home %d, want %d tokens at the home", locs, g.sessionHome[key], long)
	}
}

// TestRadixGatewaySessionWorkload runs a real multi-turn session workload
// end to end in radix mode: every request completes, later turns hit the
// cache, and two identical runs produce identical records and stats.
func TestRadixGatewaySessionWorkload(t *testing.T) {
	scripts := chatScripts(30, 5, 0.5, 21)
	run := func() *Result {
		res, err := RunSessions(scripts, radixConfig(2, NewPrefixAffinity()), true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.TokenHitRatio() < 0.5 {
		t.Fatalf("radix token hit ratio %.3f below 0.5 on a warm session trace", a.TokenHitRatio())
	}
	b := run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between identical radix runs", i)
		}
	}
	for i := range a.Replicas {
		if a.Replicas[i] != b.Replicas[i] {
			t.Fatalf("replica %d stats differ: %+v vs %+v", i, a.Replicas[i], b.Replicas[i])
		}
	}
}

// TestGatewayRejectsUnknownCache covers the config error path: the radix
// cache is the only one, so any other name — the deleted whole-key cache's
// included — is an error, while "" and CacheRadix both build it.
func TestGatewayRejectsUnknownCache(t *testing.T) {
	for _, cache := range []string{"quantum", "wholekey"} {
		if _, err := NewGateway(Config{Groups: toyFleet(1), Cache: cache}, simevent.New()); err == nil {
			t.Fatalf("cache %q accepted", cache)
		}
	}
	for _, cache := range []string{"", CacheRadix} {
		if _, err := NewGateway(Config{Groups: toyFleet(1), Cache: cache}, simevent.New()); err != nil {
			t.Fatalf("cache %q rejected: %v", cache, err)
		}
	}
}
