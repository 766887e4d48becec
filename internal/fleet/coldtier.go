package fleet

// coldTier is the fleet-shared host-memory KV pool: a flat residency
// layer holding copies of blocks the replicas evicted for capacity. Where
// a replica's RadixCache must keep whole prefixes resident (its KV feeds
// attention directly), the cold tier is a staging store — any block can
// be held alone, and a fetch splices a contiguous cold run onto whatever
// prefix the destination already has. Blocks enter only through capacity
// evictions (spill is a copy-out of KV that physically existed; migration
// departures and crash/drain wipes have nothing left to copy), leave only
// through its own GDSF eviction, and are copied — never moved — to
// replicas on fetch.
//
// Eviction reuses the replica cache's block store verbatim: the leafHeap
// over (GDSF priority, hash) — every cold copy is a leaf — the TinyLFU
// sketch for admission under pressure, and the cost model's
// recompute-seconds as the GDSF cost term (priced at the reference
// replica kind — host memory is fleet-shared, so there is no single
// "local" kind). Determinism matches RadixCache: no clocks, no
// randomness, hash tie-breaks.
type coldTier struct {
	blockStore
	g     *Gateway
	stats ColdStats
}

// ColdStats summarizes cold-tier activity for a run.
type ColdStats struct {
	Spilled       int   // blocks copied in from capacity evictions
	Rejected      int   // spills refused by the admission filter
	Evicted       int   // blocks dropped by cold-tier capacity pressure
	Fetches       int   // cold-fetch operations (one per request served)
	FetchedTokens int64 // tokens copied to replicas by fetches
}

// newColdTier builds the pool. capTokens is the host-memory budget in KV
// tokens, at least one block; blockCost prices eviction at the reference
// replica kind.
func newColdTier(g *Gateway, capTokens, blockTokens int, blockCost func(start, tokens int) float64) *coldTier {
	return &coldTier{blockStore: newBlockStore(capTokens, blockTokens, blockCost), g: g}
}

// spill copies one capacity-evicted block, named by its chained hash and
// block depth, into the pool. Duplicate spills (another replica already
// spilled this block) just re-prioritize the existing copy.
func (ct *coldTier) spill(srcRep int, hash uint64, depth int) {
	ct.sketch.touch(PrefixKey(hash))
	if n, ok := ct.blocks[hash]; ok {
		ct.refresh(n)
		return
	}
	for ct.used+ct.blockTokens > ct.capacity {
		v := ct.leaves[0]
		if ct.sketch.estimate(PrefixKey(hash)) < ct.sketch.estimate(PrefixKey(v.hash)) {
			ct.stats.Rejected++
			return
		}
		ct.evict(v)
	}
	n := ct.pool.get()
	n.hash = hash
	n.depth = depth
	n.heapIdx = -1
	ct.blocks[hash] = n
	ct.used += ct.blockTokens
	ct.refresh(n)
	ct.leaves.push(n)
	ct.stats.Spilled++
	ct.g.emitColdSpill(srcRep, ct.blockTokens, ct.used, len(ct.blocks))
}

// evict drops the given cold copy, advancing the GDSF clock like the
// replica caches do, and publishes the directory retraction.
func (ct *coldTier) evict(v *radixNode) {
	if v.prio > ct.clock {
		ct.clock = v.prio
	}
	ct.leaves.remove(v)
	delete(ct.blocks, v.hash)
	ct.used -= ct.blockTokens
	ct.stats.Evicted++
	ct.pool.put(v)
	ct.g.emitDirUpdate(DirCold, -ct.blockTokens, ct.used, "cold-evict")
}

// run returns how many consecutive blocks of chain starting at block
// index `from` are cold-resident — the contiguous run a fetch could
// splice onto a replica's resident prefix of length `from`.
func (ct *coldTier) run(chain []uint64, from int) int {
	k := 0
	for from+k < len(chain) {
		if _, ok := ct.blocks[chain[from+k]]; !ok {
			break
		}
		k++
	}
	return k
}

// touchRun records a fetch of chain[from:from+k]: the copies stay cold
// (a fetch is a copy), but their frequency and priority rise so the hot
// shared prefixes the fleet keeps re-fetching outlive one-off tails.
func (ct *coldTier) touchRun(chain []uint64, from, k int) {
	for i := from; i < from+k; i++ {
		ct.sketch.touch(PrefixKey(chain[i]))
		if n, ok := ct.blocks[chain[i]]; ok {
			ct.refresh(n)
		}
	}
	ct.stats.Fetches++
	ct.stats.FetchedTokens += int64(k * ct.blockTokens)
}
