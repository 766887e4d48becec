package fleet

import (
	"math/rand"
	"testing"

	"loongserve/internal/workload"
)

// checkRadixCacheInvariants verifies the radix cache's structural
// invariants: block accounting, capacity, parent residency and child
// counts, and exact agreement between the leaf set and the eviction heap.
func checkRadixCacheInvariants(t *testing.T, c *RadixCache, step int) {
	t.Helper()
	if c.used != len(c.blocks)*c.blockTokens {
		t.Fatalf("step %d: used %d != %d blocks x %d", step, c.used, len(c.blocks), c.blockTokens)
	}
	if c.used > c.capacity {
		t.Fatalf("step %d: used %d exceeds capacity %d", step, c.used, c.capacity)
	}
	kids := make(map[*radixNode]int)
	for h, n := range c.blocks {
		if n.hash != h {
			t.Fatalf("step %d: node indexed under %x claims hash %x", step, h, n.hash)
		}
		if n.parent != nil {
			if c.blocks[n.parent.hash] != n.parent {
				t.Fatalf("step %d: node %x has non-resident parent %x", step, h, n.parent.hash)
			}
			if n.depth != n.parent.depth+1 {
				t.Fatalf("step %d: node %x depth %d under parent depth %d", step, h, n.depth, n.parent.depth)
			}
			kids[n.parent]++
		} else if n.depth != 0 {
			t.Fatalf("step %d: parentless node %x at depth %d", step, h, n.depth)
		}
	}
	leaves := 0
	for _, n := range c.blocks {
		if got := kids[n]; got != n.kids {
			t.Fatalf("step %d: node %x kids %d, actual children %d", step, n.hash, n.kids, got)
		}
		if n.kids == 0 {
			leaves++
			if n.heapIdx < 0 || n.heapIdx >= len(c.leaves) || c.leaves[n.heapIdx] != n {
				t.Fatalf("step %d: leaf %x not in heap (idx %d)", step, n.hash, n.heapIdx)
			}
		} else if n.heapIdx != -1 {
			t.Fatalf("step %d: interior node %x still in heap at %d", step, n.hash, n.heapIdx)
		}
	}
	if leaves != len(c.leaves) {
		t.Fatalf("step %d: %d leaves, heap holds %d", step, leaves, len(c.leaves))
	}
	for i := 1; i < len(c.leaves); i++ {
		if leafLess(c.leaves[i], c.leaves[(i-1)/2]) {
			t.Fatalf("step %d: heap order violated at %d", step, i)
		}
	}
}

// TestRadixCacheInvariantsUnderRandomOps drives the radix cache through
// random Put/Install/RemoveExclusive/Lookup/MatchTokens sequences over
// realistically shaped chains — generated from a branching session
// workload, so they share system prompts and trunk prefixes — checking
// invariants after every operation. Deterministic per seed.
func TestRadixCacheInvariantsUnderRandomOps(t *testing.T) {
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
			c := NewRadixCache(20*workload.BlockTokens, workload.BlockTokens, admission, cost)
			for step := 0; step < 3000; step++ {
				chain := chains[rng.Intn(len(chains))]
				if rng.Intn(16) == 0 {
					chain = nil // empty chains must be inert
				}
				switch rng.Intn(5) {
				case 0:
					c.Put(chain)
				case 1:
					c.Install(chain, rng.Intn(24*workload.BlockTokens))
				case 2:
					c.RemoveExclusive(chain)
				case 3:
					c.Lookup(chain)
				case 4:
					c.MatchTokens(chain)
				}
				checkRadixCacheInvariants(t, c, step)
			}
		}
	}
}
