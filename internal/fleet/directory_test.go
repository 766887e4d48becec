package fleet

import (
	"math/rand"
	"testing"
	"time"

	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// The directory-coherence property: the residency layers are the
// directory, and the directory-update stream they publish must describe
// them exactly. Replaying the stream per location — directory-update
// deltas, plus cold-spill events at DirCold — must reproduce every
// cache's and the cold tier's resident tokens after ANY sequence of cache
// operations, and each event must carry the replayed total. Every hook
// site (insert, capacity eviction, migration removal, wipe, cold
// eviction) feeds the replay, so dropping any one of them breaks it.

// dirReplay folds directory-update and cold-spill events into per-location
// resident-token totals, checking each event's shape on the way: every
// delta is one block, except a wipe, which empties its location, and every
// carried total equals the replay.
type dirReplay struct {
	blockTokens int
	tokens      map[int]int // location -> replayed resident tokens
	labels      map[string]int
}

func newDirReplay(blockTokens int) *dirReplay {
	return &dirReplay{blockTokens: blockTokens, tokens: make(map[int]int), labels: make(map[string]int)}
}

// fold replays events, failing the test at the first malformed one.
func (r *dirReplay) fold(t *testing.T, events []obs.Event, step int) {
	t.Helper()
	for _, e := range events {
		switch e.Kind {
		case obs.KindDirectoryUpdate:
			loc, before := e.Replica, r.tokens[e.Replica]
			r.tokens[loc] += e.Tokens
			r.labels[e.Label]++
			want := 0
			switch e.Label {
			case "add":
				want = r.blockTokens
			case "remove":
				want = -r.blockTokens
			case "wipe":
				want = -before
			case "cold-evict":
				want = -r.blockTokens
				if loc != DirCold {
					t.Fatalf("step %d: cold-evict at location %d", step, loc)
				}
			default:
				t.Fatalf("step %d: unknown directory-update label %q", step, e.Label)
			}
			if e.Tokens != want || want == 0 {
				t.Fatalf("step %d: %s at %d carries delta %d, want %d", step, e.Label, loc, e.Tokens, want)
			}
			if int(e.A) != r.tokens[loc] {
				t.Fatalf("step %d: %s at %d carries total %d, replay holds %d", step, e.Label, loc, e.A, r.tokens[loc])
			}
		case obs.KindColdSpill:
			r.tokens[DirCold] += e.Tokens
			r.labels["cold-spill"]++
			if e.Tokens != r.blockTokens {
				t.Fatalf("step %d: cold spill of %d tokens, want one block", step, e.Tokens)
			}
			if int(e.A) != r.tokens[DirCold] || int(e.B)*r.blockTokens != r.tokens[DirCold] {
				t.Fatalf("step %d: cold spill carries %d tokens in %d blocks, replay holds %d", step, e.A, e.B, r.tokens[DirCold])
			}
		}
	}
}

// TestDirectoryCoherenceRadixUnderRandomOps drives a small fleet of
// shim-wired radix caches — spilling capacity evictions into a cold tier —
// through random put/install/remove/lookup/wipe sequences (wipes model
// crash and drain KV destruction). After every operation the replayed
// stream must equal each cache's and the cold tier's used tokens.
// Deterministic per seed.
func TestDirectoryCoherenceRadixUnderRandomOps(t *testing.T) {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 16
	cfg.BranchFactor = 4
	cfg.BranchTurns = 2
	var chains [][]uint64
	for _, s := range workload.SessionScripts(cfg, 3) {
		for turn := range s.Turns {
			e := s.Entry(turn)
			chains = append(chains, e.Blocks, e.InputBlocks())
		}
	}
	cost := func(start, tokens int) float64 { return float64(start + tokens) }
	for _, admission := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			col := &obs.Collector{}
			g := &Gateway{sim: simevent.New(), obsSink: col}
			const nCaches = 3
			reps := make([]*replica, nCaches)
			for i := range reps {
				reps[i] = &replica{index: i, radix: NewRadixCache(12*workload.BlockTokens, workload.BlockTokens, admission, cost)}
				reps[i].radix.setObserver(&dirShim{g: g, rep: reps[i]})
			}
			g.cold = newColdTier(g, 8*workload.BlockTokens, workload.BlockTokens, cost)
			replay := newDirReplay(workload.BlockTokens)
			for step := 0; step < 3000; step++ {
				c := reps[rng.Intn(nCaches)].radix
				chain := chains[rng.Intn(len(chains))]
				switch rng.Intn(8) {
				case 0, 1, 2:
					c.Put(chain)
				case 3, 4:
					c.Install(chain, rng.Intn(16*workload.BlockTokens))
				case 5:
					c.RemoveExclusive(chain) // migration departure: no spill
				case 6:
					c.Lookup(chain)
				case 7:
					if rng.Intn(20) == 0 {
						c.Clear() // crash/drain wipe: no spill, bulk retract
					}
				}
				replay.fold(t, col.Events, step)
				col.Reset()
				for i, rep := range reps {
					if got, want := replay.tokens[i], rep.radix.Used(); got != want {
						t.Fatalf("step %d: replica %d holds %d tokens, its stream replays to %d", step, i, want, got)
					}
				}
				if got, want := replay.tokens[DirCold], g.cold.Used(); got != want {
					t.Fatalf("step %d: cold tier holds %d tokens, its stream replays to %d", step, want, got)
				}
			}
			for _, label := range []string{"add", "remove", "wipe", "cold-evict", "cold-spill"} {
				if replay.labels[label] == 0 {
					t.Fatalf("admission %v seed %d: random ops never emitted a %s; workload too small", admission, seed, label)
				}
			}
		}
	}
}

// TestFleetDirectoryChaosAuditsClean is the end-to-end coherence check: a
// session workload under content routing with the directory and a cold
// tier smaller than it spills on — absorbing a stall, a drain, a
// link-degradation window, a crash and cold evictions — completes every
// request, emits a stream the full invariant auditor passes,
// directory/content-route/cold kinds included, and its directory stream
// replays to the caches' final resident sets.
func TestFleetDirectoryChaosAuditsClean(t *testing.T) {
	scripts := chatScripts(50, 8, 0.2, 7)
	col := &obs.Collector{}
	cfg := chaosConfig(col)
	cfg.Policy = NewContentAffinity()
	cfg.Cache = CacheRadix
	cfg.CacheTokens = 4 * workload.BlockTokens    // tiny: force spills
	cfg.ColdTierTokens = 8 * workload.BlockTokens // fewer than it spills: force cold evictions
	cfg.Faults = []workload.Fault{
		{At: 400 * time.Millisecond, Kind: workload.FaultStall, Slot: 1, Stall: 300 * time.Millisecond},
		{At: 600 * time.Millisecond, Kind: workload.FaultDegrade, Slot: 0, Window: 2 * time.Second, Factor: 8},
		{At: 800 * time.Millisecond, Kind: workload.FaultDrain, Slot: 2},
		{At: 1500 * time.Millisecond, Kind: workload.FaultCrash, Slot: 0},
	}
	res, err := RunSessions(scripts, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Crashes == 0 || res.Faults.Drains == 0 || res.Faults.LinkDegrades == 0 {
		t.Fatalf("chaos run absorbed too few faults: %+v", res.Faults)
	}
	if res.Cold.Spilled == 0 {
		t.Fatalf("cold tier saw no spills at a %d-token replica cache: %+v", cfg.CacheTokens, res.Cold)
	}
	if res.Cold.Evicted == 0 {
		t.Fatalf("cold tier evicted nothing at %d tokens: %+v", cfg.ColdTierTokens, res.Cold)
	}
	kinds := make(map[obs.Kind]int)
	for _, e := range col.Events {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindDirectoryUpdate, obs.KindContentRoute, obs.KindColdSpill} {
		if kinds[k] == 0 {
			t.Fatalf("stream carries no %s events; kinds seen: %v", k, kinds)
		}
	}
	if vs := analyze.Audit(col.Events); len(vs) != 0 {
		t.Fatalf("directory chaos stream failed audit (%d violations), first: %s", len(vs), vs[0])
	}
	// The directory equals the ground truth: replayed per location, the
	// stream ends at every replica's resident blocks — crashed and drained
	// ones at zero — and at the cold tier's.
	replay := newDirReplay(workload.BlockTokens)
	replay.fold(t, col.Events, -1)
	for i, rs := range res.Replicas {
		if got, want := replay.tokens[i], rs.CacheEntries*workload.BlockTokens; got != want {
			t.Fatalf("replica %d ends with %d resident tokens, its stream replays to %d", i, want, got)
		}
	}
	if got, want := replay.tokens[DirCold], (res.Cold.Spilled-res.Cold.Evicted)*workload.BlockTokens; got != want {
		t.Fatalf("cold tier ends with %d resident tokens, its stream replays to %d", want, got)
	}
}
