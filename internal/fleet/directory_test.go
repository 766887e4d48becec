package fleet

import (
	"math/rand"
	"testing"
	"time"

	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/workload"
)

// The directory-coherence property: after ANY sequence of cache
// operations, the gateway's global cache directory and the caches' own
// enumeration describe exactly the same resident sets, per location. The
// directory has no refresh path — it is only ever updated by the
// residency observers — so this is the invariant that proves the shim
// wiring is complete (no cache mutation escapes it).

// checkDirectoryCoherenceRadix compares one radix cache's ground truth
// against the directory's view of its location.
func checkDirectoryCoherenceRadix(t *testing.T, dir *CacheDirectory, c *RadixCache, loc, step int) {
	t.Helper()
	want := c.ResidentBlocks()
	got := dir.LocBlocks(loc)
	if len(want) != len(got) {
		t.Fatalf("step %d: loc %d holds %d blocks, directory lists %d", step, loc, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d: loc %d block %d: cache %x, directory %x", step, loc, i, want[i], got[i])
		}
	}
	if dir.LocTokens(loc) != c.used {
		t.Fatalf("step %d: loc %d used %d, directory claims %d", step, loc, c.used, dir.LocTokens(loc))
	}
}

// TestDirectoryCoherenceRadixUnderRandomOps drives a small fleet of
// observer-wired radix caches — sharing one index, spilling capacity
// evictions into a cold tier — through random put/install/remove/wipe
// sequences (wipes model crash and drain KV destruction), checking after
// every operation that the directory matches each cache's enumeration and
// the cold tier's. Deterministic per seed.
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
			g := &Gateway{dir: NewCacheDirectory(workload.BlockTokens)}
			ix := NewRadixIndex()
			const nCaches = 3
			caches := make([]*RadixCache, nCaches)
			for i := range caches {
				caches[i] = NewRadixCacheIndexed(ix, 12*workload.BlockTokens, workload.BlockTokens, admission, cost)
				caches[i].setObserver(&dirShim{g: g, rep: &replica{index: i}})
			}
			g.cold = newColdTier(g, ix, 8*workload.BlockTokens, workload.BlockTokens, cost)
			for step := 0; step < 3000; step++ {
				c := caches[rng.Intn(nCaches)]
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
				for i, cc := range caches {
					checkDirectoryCoherenceRadix(t, g.dir, cc, i, step)
				}
				coldWant := g.cold.ResidentBlocks()
				coldGot := g.dir.LocBlocks(DirCold)
				if len(coldWant) != len(coldGot) {
					t.Fatalf("step %d: cold tier holds %d blocks, directory lists %d", step, len(coldWant), len(coldGot))
				}
				for i := range coldWant {
					if coldWant[i] != coldGot[i] {
						t.Fatalf("step %d: cold block %d: tier %x, directory %x", step, i, coldWant[i], coldGot[i])
					}
				}
				if g.dir.LocTokens(DirCold) != g.cold.used {
					t.Fatalf("step %d: cold used %d, directory claims %d", step, g.cold.used, g.dir.LocTokens(DirCold))
				}
			}
			if g.cold.stats.Spilled == 0 {
				t.Fatal("random ops never exercised a cold spill; workload too small")
			}
		}
	}
}

// TestFleetDirectoryChaosAuditsClean is the end-to-end coherence check: a
// session workload under content routing with the directory and cold tier
// on — absorbing a stall, a drain, a link-degradation window and a crash —
// completes every request and emits a stream the full invariant auditor
// passes, directory/content-route/cold kinds included.
func TestFleetDirectoryChaosAuditsClean(t *testing.T) {
	scripts := chatScripts(50, 8, 0.2, 7)
	col := &obs.Collector{}
	cfg := chaosConfig(col)
	cfg.Policy = NewContentAffinity()
	cfg.Cache = CacheRadix
	cfg.CacheTokens = 4 * workload.BlockTokens // tiny: force spills
	cfg.ColdTierTokens = 16 * workload.BlockTokens
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
}
