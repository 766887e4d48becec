package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/kvcache"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// toyEngine is a deterministic single-server engine for gateway unit
// tests: requests are served FIFO, one at a time, prefill costing 1us per
// input token and decode 20us per output token. It keeps the tests fast
// and the arithmetic of queueing/drain scenarios exact, with no dependence
// on the baselines package (which imports fleet).
type toyEngine struct {
	env       *serving.Env
	busyUntil simevent.Time
	inflight  int
}

func (e *toyEngine) Name() string { return "toy" }

func (e *toyEngine) Init(env *serving.Env) error {
	e.env = env
	return nil
}

func (e *toyEngine) Arrive(r *serving.Request) {
	e.inflight++
	start := e.env.Sim.Now()
	if e.busyUntil > start {
		start = e.busyUntil
	}
	prefill := time.Duration(r.InputLen) * time.Microsecond
	decode := time.Duration(r.OutputLen) * 20 * time.Microsecond
	first := simevent.Time(start).Add(prefill)
	finish := first.Add(decode)
	e.busyUntil = finish
	e.env.Sim.At(finish, func() {
		r.Phase = serving.Finished
		r.Generated = r.OutputLen
		r.FirstToken = first
		r.Finish = finish
		e.inflight--
		e.env.Complete(r)
	})
}

func (e *toyEngine) Load() serving.LoadStats {
	return serving.LoadStats{Running: e.inflight}
}

// toySpec builds a fleet of toy replicas on the paper's cluster shape.
func toySpec() Spec {
	m := model.LWM1MText()
	hw := cluster.A800()
	return Spec{
		NewEngine: func() serving.Engine { return &toyEngine{} },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 8, 8)
		},
	}
}

// toyFleet is a homogeneous composition of n toy replicas, of a fresh kind
// per call.
func toyFleet(n int) []ReplicaGroup {
	return []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: n}}
}

// sessionBlocks is a hand-built session's block-hash chain over its first
// `tokens` tokens, as workload.Entry.Blocks carries it: the turns of one
// session share their prefix, and no two sessions share a block.
func sessionBlocks(session int64, tokens int) []uint64 {
	out := make([]uint64, tokens/workload.BlockTokens)
	for i := range out {
		out[i] = uint64(session)<<32 | uint64(i+1)
	}
	return out
}

// chatScripts builds a small deterministic session workload.
func chatScripts(sessions int, rate, think float64, seed int64) []workload.SessionScript {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = sessions
	cfg.SessionRate = rate
	cfg.ThinkMean = think
	return workload.SessionScripts(cfg, seed)
}

// joinTurns indexes a session run's records by (session, turn) via the
// emitted trace (request ID i+1 = trace index i).
func joinTurns(t *testing.T, res *Result) map[int64]map[int]struct {
	arrival, finish time.Duration
} {
	t.Helper()
	out := make(map[int64]map[int]struct{ arrival, finish time.Duration })
	for _, rec := range res.Records {
		i := int(rec.ID) - 1
		if i < 0 || i >= len(res.Trace) {
			t.Fatalf("record ID %d outside emitted trace (%d requests)", rec.ID, len(res.Trace))
		}
		e := res.Trace[i]
		if e.InputLen != rec.InputLen || e.OutputLen != rec.OutputLen {
			t.Fatalf("record %d lengths (%d,%d) disagree with trace (%d,%d)",
				rec.ID, rec.InputLen, rec.OutputLen, e.InputLen, e.OutputLen)
		}
		m := out[e.SessionID]
		if m == nil {
			m = make(map[int]struct{ arrival, finish time.Duration })
			out[e.SessionID] = m
		}
		m[e.Turn] = struct{ arrival, finish time.Duration }{rec.Arrival, rec.Finish}
	}
	return out
}

// TestClosedLoopNeverOutrunsCompletion is the closed-loop contract: turn
// k+1 is never emitted before turn k completes, per session, even when the
// fleet is saturated. The same workload open-loop does outrun completions
// under the same load — that contrast is what closed-loop mode exists for.
func TestClosedLoopNeverOutrunsCompletion(t *testing.T) {
	scripts := chatScripts(40, 8, 0.01, 3) // fast arrivals, near-zero think: saturating
	cfg := Config{Groups: toyFleet(2), Policy: NewPrefixAffinity()}

	closed, err := RunSessions(scripts, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(closed.Records) != workload.NumRequests(scripts) {
		t.Fatalf("closed loop completed %d of %d", len(closed.Records), workload.NumRequests(scripts))
	}
	for sid, turns := range joinTurns(t, closed) {
		for k := 1; ; k++ {
			cur, ok := turns[k]
			if !ok {
				break
			}
			prev, ok := turns[k-1]
			if !ok {
				t.Fatalf("session %d turn %d exists without turn %d", sid, k, k-1)
			}
			if cur.arrival < prev.finish {
				t.Fatalf("session %d turn %d arrived at %v before turn %d finished at %v",
					sid, k, cur.arrival, k-1, prev.finish)
			}
		}
	}

	open, err := RunSessions(scripts, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	outran := false
	for _, turns := range joinTurns(t, open) {
		for k := 1; ; k++ {
			cur, ok := turns[k]
			if !ok {
				break
			}
			if cur.arrival < turns[k-1].finish {
				outran = true
			}
		}
	}
	if !outran {
		t.Fatal("open-loop run never outran a completion; the load is too light to distinguish the modes")
	}
}

// TestOpenLoopFeedMatchesStaticTrace: driving scripts open-loop through
// the feed must serve exactly the requests SessionTrace materializes.
func TestOpenLoopFeedMatchesStaticTrace(t *testing.T) {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 24
	scripts := workload.SessionScripts(cfg, 5)
	static := workload.SessionTrace(cfg, 5)

	res, err := RunSessions(scripts, Config{Groups: toyFleet(2), Policy: NewRoundRobin()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(static) {
		t.Fatalf("feed emitted %d requests, static trace has %d", len(res.Trace), len(static))
	}
	// Same requests at the same times. Arrivals are compared with a small
	// tolerance: the feed accumulates think times event by event, the
	// static trace in one float sum, so the two round differently at
	// nanosecond scale. Entries are unique per (session, turn).
	type turnKey struct {
		sid  int64
		turn int
	}
	want := make(map[turnKey]workload.TimedRequest, len(static))
	for _, tr := range static {
		want[turnKey{tr.SessionID, tr.Turn}] = tr
	}
	for _, tr := range res.Trace {
		k := turnKey{tr.SessionID, tr.Turn}
		w, ok := want[k]
		if !ok {
			t.Fatalf("feed emitted %+v not present in static trace", tr.Entry)
		}
		if !reflect.DeepEqual(tr.Entry, w.Entry) {
			t.Fatalf("feed emitted %+v, static trace has %+v", tr.Entry, w.Entry)
		}
		if d := tr.Arrival - w.Arrival; d < -2*time.Microsecond || d > 2*time.Microsecond {
			t.Fatalf("turn %+v arrived at %v, static trace says %v", tr.Entry, tr.Arrival, w.Arrival)
		}
		delete(want, k)
	}
}

// TestDrainMigratesLiveSessions is the drain property test: draining a
// replica under concurrent arrivals loses no session, duplicates no
// session, and preserves exact token counts for sessions that were idle at
// drain time. Randomized over seeds and drain times, deterministic per
// seed. A session's copies are counted in session-private tokens: its
// resident chain minus the system prompt's whole blocks, which any session
// of the prompt group may have placed on a replica.
func TestDrainMigratesLiveSessions(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			scripts := chatScripts(30, 6, 0.5, seed)
			sim := simevent.New()
			g, err := NewGateway(Config{Groups: toyFleet(3), Policy: NewPrefixAffinity()}, sim)
			if err != nil {
				t.Fatal(err)
			}
			feed := FeedSessions(g, scripts, true)
			privateLocations := func(s workload.SessionScript) map[int]int {
				shared := s.SystemTokens / workload.BlockTokens * workload.BlockTokens
				out := make(map[int]int)
				for i, c := range g.SessionLocations(s.ID) {
					if c > shared {
						out[i] = c - shared
					}
				}
				return out
			}

			// Drain a replica at a random time inside the arrival window,
			// while requests are in flight and more are arriving. The
			// victim is the replica holding the most session-private
			// tokens then (lowest index on ties), so every seed drains
			// resident sessions.
			drainAt := simevent.FromSeconds(1 + rng.Float64()*3)
			victim := -1
			var preDrain map[int64]int  // sessionID -> tokens resident on victim
			var soleCopy map[int64]bool // victim held the only copy
			sim.At(simevent.Time(drainAt), func() {
				held := make([]int, len(g.replicas))
				for _, s := range scripts {
					for i, c := range privateLocations(s) {
						held[i] += c
					}
				}
				victim = 0
				for i, c := range held {
					if c > held[victim] {
						victim = i
					}
				}
				preDrain = make(map[int64]int)
				soleCopy = make(map[int64]bool)
				for _, s := range scripts {
					locs := privateLocations(s)
					if c, on := locs[victim]; on {
						preDrain[s.ID] = c
						soleCopy[s.ID] = len(locs) == 1
					}
				}
				if err := g.DrainReplica(victim); err != nil {
					t.Errorf("drain: %v", err)
				}
			})
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}

			if feed.Completed() != feed.Total() {
				t.Fatalf("%d of %d requests completed after drain", feed.Completed(), feed.Total())
			}
			res := g.Finalize()
			lastFinish := make(map[int64]time.Duration)
			for _, rec := range res.Records {
				if rec.FirstToken < rec.Arrival || rec.Finish < rec.FirstToken {
					t.Fatalf("request %d has an inverted timeline after drain: %+v", rec.ID, rec)
				}
				sid := feed.Trace[rec.ID-1].SessionID
				if rec.Finish > lastFinish[sid] {
					lastFinish[sid] = rec.Finish
				}
			}

			// The victim retired empty.
			if st := g.replicas[victim].state; st != ReplicaRetired {
				t.Fatalf("victim replica is %v, want retired", st)
			}
			if n := g.replicas[victim].radix.Len(); n != 0 {
				t.Fatalf("victim cache still holds %d blocks", n)
			}
			if g.replicas[victim].outReqs != 0 || g.replicas[victim].migrationsOut != 0 {
				t.Fatal("victim retired with outstanding work")
			}

			// No session the victim held is lost: its KV (or a fresher,
			// larger version carried by an in-flight handoff or later turn)
			// survives on a replica that is not the victim. Sessions that
			// were entirely finished before the drain — no in-flight
			// request, no later turn — are the pure-migration cases: their
			// sole copy must land on exactly one survivor with exactly the
			// token count it had. (Sessions served by several replicas over
			// their lifetime may hold extra stale short-prefix copies;
			// that is routing history, not drain behavior.)
			strong := 0
			for _, s := range scripts {
				sid := s.ID
				tokens, held := preDrain[sid]
				if !held {
					continue
				}
				locs := privateLocations(s)
				if len(locs) == 0 {
					t.Fatalf("session %d lost in drain (had %d tokens)", sid, tokens)
				}
				if _, still := locs[victim]; still {
					t.Fatalf("session %d still on drained replica", sid)
				}
				best := 0
				for _, got := range locs {
					if got > best {
						best = got
					}
				}
				if best < tokens {
					t.Fatalf("session %d shrank in drain: %d -> %d", sid, tokens, best)
				}
				if soleCopy[sid] && lastFinish[sid] < drainAt {
					strong++
					if len(locs) != 1 {
						t.Fatalf("idle sole-copy session %d duplicated by drain: %v", sid, locs)
					}
					if best != tokens {
						t.Fatalf("idle session %d migrated with %d tokens, had %d", sid, best, tokens)
					}
				}
			}
			if len(preDrain) == 0 {
				t.Fatal("no replica held a session at drain time")
			}
			t.Logf("victim held %d sessions, %d verified as exact sole-copy migrations", len(preDrain), strong)
			if res.Migrations.Count == 0 || res.Migrations.Tokens == 0 {
				t.Fatal("drain reported no migrations despite resident sessions")
			}
			if res.Migrations.Time <= 0 {
				t.Fatal("migrations took zero link time")
			}
			// Drain events present and ordered: drain before retire.
			var drainT, retireT time.Duration = -1, -1
			for _, ev := range res.Events {
				if ev.Replica == victim && ev.Kind == "drain" {
					drainT = ev.At
				}
				if ev.Replica == victim && ev.Kind == "retire" {
					retireT = ev.At
				}
			}
			if drainT < 0 || retireT < 0 || retireT < drainT {
				t.Fatalf("drain/retire events missing or inverted: drain %v retire %v", drainT, retireT)
			}
			// Retired replicas stop accruing replica-seconds.
			if res.ReplicaSeconds >= 3*res.End.Seconds() {
				t.Fatalf("replica-seconds %.3f not reduced by retirement (end %.3fs)", res.ReplicaSeconds, res.End.Seconds())
			}
		})
	}
}

// TestAddReplicaWarmup: a provisioned replica takes no traffic until its
// warm-up elapses, then serves; it accrues replica-seconds from
// provisioning.
func TestAddReplicaWarmup(t *testing.T) {
	scripts := chatScripts(30, 10, 0.2, 9)
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(1), Policy: NewLeastLoaded()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	feed := FeedSessions(g, scripts, true)

	const warmup = 2 * time.Second
	provisionAt := simevent.FromSeconds(1)
	sim.At(simevent.Time(provisionAt), func() {
		idx, err := g.AddReplica(g.refKind, warmup)
		if err != nil {
			t.Errorf("AddReplica: %v", err)
		}
		if idx != 1 {
			t.Errorf("new replica index %d, want 1", idx)
		}
		if g.replicas[1].state != ReplicaWarming {
			t.Errorf("new replica state %v, want warming", g.replicas[1].state)
		}
		if g.ActiveReplicas() != 1 || g.ProvisionedReplicas() != 2 {
			t.Errorf("active %d provisioned %d, want 1/2", g.ActiveReplicas(), g.ProvisionedReplicas())
		}
	})
	// Just before activation: still no traffic on the warming replica.
	sim.At(simevent.Time(provisionAt+warmup-time.Millisecond), func() {
		if g.replicas[1].stats.Requests != 0 {
			t.Error("warming replica served traffic before activation")
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	if feed.Completed() != feed.Total() {
		t.Fatalf("%d of %d completed", feed.Completed(), feed.Total())
	}
	if g.replicas[1].state != ReplicaActive {
		t.Fatalf("replica 1 state %v after warm-up", g.replicas[1].state)
	}
	if g.replicas[1].stats.Requests == 0 {
		t.Fatal("activated replica served nothing despite load")
	}
	res := g.Finalize()
	// Replica 1 is charged from provisioning (t=1s) to the end.
	want := res.End.Seconds() + (res.End - provisionAt).Seconds()
	if diff := res.ReplicaSeconds - want; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("replica-seconds %.6f, want %.6f", res.ReplicaSeconds, want)
	}
	var sawProvision, sawActive bool
	for _, ev := range res.Events {
		if ev.Replica == 1 && ev.Kind == "provision" {
			sawProvision = true
		}
		if ev.Replica == 1 && ev.Kind == "active" {
			if !sawProvision {
				t.Fatal("active event before provision event")
			}
			sawActive = true
			if got := ev.At - provisionAt; got != warmup {
				t.Fatalf("activation after %v, want %v", got, warmup)
			}
		}
	}
	if !sawProvision || !sawActive {
		t.Fatal("provision/active events missing")
	}
}

// TestDrainGuards covers the drain error paths.
func TestDrainGuards(t *testing.T) {
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(2), Policy: NewLeastLoaded()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.DrainReplica(5); err == nil {
		t.Error("drain of unknown replica accepted")
	}
	if err := g.DrainReplica(1); err != nil {
		t.Errorf("drain of idle replica failed: %v", err)
	}
	if err := g.DrainReplica(1); err == nil {
		t.Error("double drain accepted")
	}
	if err := g.DrainReplica(0); err == nil {
		t.Error("drain of last active replica accepted")
	}
}

// TestRoutedMigrationMovesHotSession: when a session's home replica is
// buried under unrelated load, MigratingAffinity moves its KV to the idle
// replica instead of recomputing — visible as a "route" migration and a
// relocated tree path.
func TestRoutedMigrationMovesHotSession(t *testing.T) {
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(2), Policy: NewMigratingAffinity()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	id := int64(1)

	// Turn 0: lands somewhere, warms that replica.
	submit := func(reqID int, e workload.Entry, at time.Duration) {
		r := &serving.Request{
			ID: kvcache.RequestID(reqID), InputLen: e.InputLen, OutputLen: e.OutputLen,
			Arrival: simevent.Time(at),
		}
		sim.At(simevent.Time(at), func() { g.Submit(r, e) })
	}
	turn0 := workload.Entry{InputLen: 30_000, OutputLen: 100, SessionID: id, Turn: 0, PrefixLen: 0,
		Blocks: sessionBlocks(id, 30_100)}
	submit(1, turn0, 0)

	var home int
	sim.At(simevent.Time(time.Second), func() {
		locs := g.SessionLocations(id)
		if len(locs) != 1 {
			t.Errorf("session resident on %d replicas, want 1", len(locs))
			return
		}
		for i := range locs {
			home = i
		}
		// Bury the home replica under stateless load, then resubmit the
		// session: the policy should migrate it to the idle replica.
		flood := workload.Entry{InputLen: 500_000, OutputLen: 1000}
		r := &serving.Request{ID: 2, InputLen: flood.InputLen, OutputLen: flood.OutputLen, Arrival: sim.Now()}
		g.replicas[home].outTokens += 2_000_000 // synthetic backlog, settled below
		g.Submit(r, flood)
		_ = r
	})
	turn1 := workload.Entry{InputLen: 30_400, OutputLen: 100, SessionID: id, Turn: 1, PrefixLen: 30_100,
		Blocks: sessionBlocks(id, 30_500)}
	submit(3, turn1, 2*time.Second)
	sim.At(simevent.Time(3*time.Second), func() {
		g.replicas[home].outTokens -= 2_000_000 // let the run drain cleanly
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	res := g.Finalize()
	if g.Completed() != 3 {
		t.Fatalf("%d of 3 requests completed", g.Completed())
	}
	routed := 0
	for _, ev := range res.Events {
		if ev.Kind == "migrate" {
			routed++
		}
	}
	if routed == 0 || res.Migrations.Count == 0 {
		t.Fatal("no routed migration despite hard affinity/load conflict")
	}
	locs := g.SessionLocations(id)
	if len(locs) != 1 {
		t.Fatalf("session on %d replicas after migration, want 1", len(locs))
	}
	if _, still := locs[home]; still {
		t.Fatalf("session still on overloaded home %d: %v", home, locs)
	}
}
