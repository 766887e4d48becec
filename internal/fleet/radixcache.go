package fleet

import "fmt"

// RadixCache models one replica's prefix-KV store at token-block
// granularity, and is the only record of which blocks this replica holds:
// the gateway's cache directory is the stream of residency events its
// observer publishes, not a second copy of this state.
//
// The cache shares any common token prefix, not just whole session or
// prompt-group identities: two sessions with the same system prompt share
// its blocks, a branched conversation shares the trunk's blocks, and a
// session's own turns extend one path block by block.
//
// Eviction drops leaf blocks only (an interior block's KV is useless
// without its prefix — equivalently, a resident block's whole prefix is
// always resident) and is priced by the cost model rather than raw token
// counts: each block's eviction priority is
//
//	priority = clock + frequency * recomputeSeconds(depth) / BlockTokens
//
// — the GDSF (Greedy-Dual-Size-Frequency) rule with the cost model's
// marginal prefill time as the cost term. Deep blocks are expensive to
// recompute (attention grows with context), so at equal frequency the
// cache sheds shallow one-off tails before the deep tails of long hot
// sessions; the rising clock ages stale entries out regardless. Admission
// reuses the TinyLFU frequency sketch at block granularity: when inserting
// a block requires eviction, the block must be at least as popular as the
// victim it displaces.
//
// The cache is an accounting model, not a byte store, and it is fully
// deterministic: no clocks, no randomness, priority ties broken by block
// hash.
type RadixCache struct {
	blockStore
	admission bool

	// observer hears residency transitions (the gateway's directory shim).
	// nil for standalone caches — every hook site is a single nil check.
	observer residencyObserver

	// Instrumentation.
	Hits      int // lookups that matched at least one block
	Misses    int // lookups that matched nothing
	Evicted   int // blocks dropped by capacity pressure
	Rejected  int // block insertions refused by the admission policy
	HitTokens int64
}

// blockStore is the block-residency state a RadixCache and the cold tier
// share: the resident copies by hash, the GDSF eviction heap over them,
// and the TinyLFU sketch, clock and recompute-cost memo that price them.
type blockStore struct {
	capacity    int
	used        int
	blockTokens int
	blocks      map[uint64]*radixNode // hash -> resident copy
	pool        nodePool
	leaves      leafHeap // the evictable copies (every cold copy is one)
	sketch      *freqSketch
	clock       float64

	// blockCost returns the seconds needed to recompute `tokens` prefill
	// tokens starting at context offset `start` — the cost model's marginal
	// prefill time. nil prices every block equally (pure frequency+age).
	blockCost func(start, tokens int) float64
	costMemo  map[int]float64 // depth -> seconds
}

func newBlockStore(capTokens, blockTokens int, blockCost func(start, tokens int) float64) blockStore {
	return blockStore{
		capacity:    capTokens,
		blockTokens: blockTokens,
		blocks:      make(map[uint64]*radixNode),
		sketch:      newFreqSketch(4096),
		blockCost:   blockCost,
		costMemo:    make(map[int]float64),
	}
}

// radixNode is one resident copy of a KV block. The chained content hash
// names the block and, through the chaining, its whole prefix. In a
// RadixCache parent is the copy of the parent block (always resident —
// the prefix invariant) and kids counts resident children; cold copies
// stand alone.
type radixNode struct {
	hash    uint64
	depth   int        // block index: covers tokens [depth*B, (depth+1)*B)
	parent  *radixNode // nil for depth-0 blocks
	kids    int        // resident children; 0 = leaf, eligible for eviction
	prio    float64    // GDSF priority, refreshed on access
	heapIdx int        // position in the leaf heap; -1 when interior
}

// nodePool recycles radixNodes through an intrusive free list (linked by
// the parent field), so block churn — the eviction/recompute cycle of a
// long run — stops allocating once the working set has been touched.
type nodePool struct{ free *radixNode }

func (p *nodePool) get() *radixNode {
	n := p.free
	if n != nil {
		p.free = n.parent
		n.parent = nil
	} else {
		n = &radixNode{}
	}
	return n
}

func (p *nodePool) put(n *radixNode) {
	n.kids = 0
	n.prio = 0
	n.heapIdx = -1
	n.parent = p.free
	p.free = n
}

// residencyObserver hears block-level residency transitions of one
// cache. Implemented by the gateway's directory shim; the hooks fire in
// the cache's own deterministic operation order, after the cache's
// accounting has changed. blockDropped's evicted flag separates capacity
// evictions (cold-spill candidates: the KV still existed and could be
// copied out) from removals and wipes (the KV left with a migration or
// died with the replica).
type residencyObserver interface {
	blockAdded(n *radixNode)
	blockDropped(n *radixNode, evicted bool)
	cacheCleared(usedTokens int)
}

// NewRadixCache builds a radix cache holding up to capTokens KV tokens in
// blockTokens-sized blocks. admission enables TinyLFU admission;
// blockCost (optional) prices eviction in recompute-seconds via the cost
// model.
func NewRadixCache(capTokens, blockTokens int, admission bool, blockCost func(start, tokens int) float64) *RadixCache {
	if capTokens <= 0 {
		panic(fmt.Sprintf("fleet: non-positive cache capacity %d", capTokens))
	}
	if blockTokens <= 0 {
		panic(fmt.Sprintf("fleet: non-positive block size %d", blockTokens))
	}
	return &RadixCache{blockStore: newBlockStore(capTokens, blockTokens, blockCost), admission: admission}
}

// Capacity returns the token capacity.
func (s *blockStore) Capacity() int { return s.capacity }

// Used returns the resident token count.
func (s *blockStore) Used() int { return s.used }

// Len returns the resident block count.
func (s *blockStore) Len() int { return len(s.blocks) }

// BlockTokens returns the block granularity.
func (s *blockStore) BlockTokens() int { return s.blockTokens }

// setObserver attaches the residency observer (nil detaches).
func (c *RadixCache) setObserver(o residencyObserver) { c.observer = o }

// depthCost returns the recompute-seconds of the block at the given depth,
// memoized (1 when no cost model is attached: pure frequency+age GDSF).
func (s *blockStore) depthCost(depth int) float64 {
	if s.blockCost == nil {
		return 1
	}
	if v, ok := s.costMemo[depth]; ok {
		return v
	}
	v := s.blockCost(depth*s.blockTokens, s.blockTokens)
	s.costMemo[depth] = v
	return v
}

// refresh recomputes a node's GDSF priority from the current clock and
// sketch frequency, restoring heap order if the node is a leaf.
func (s *blockStore) refresh(n *radixNode) {
	n.prio = s.clock + float64(s.sketch.estimate(PrefixKey(n.hash)))*s.depthCost(n.depth)/float64(s.blockTokens)
	if n.heapIdx >= 0 {
		s.leaves.fix(n)
	}
}

// matchLen returns how many leading blocks of chain are resident. A map
// hit implies the whole prefix is resident: hashes are chained, and blocks
// are only ever inserted under a resident parent and evicted leaf-first.
func (c *RadixCache) matchLen(chain []uint64) int {
	n := 0
	for n < len(chain) {
		if _, ok := c.blocks[chain[n]]; !ok {
			break
		}
		n++
	}
	return n
}

// MatchTokens returns the longest resident prefix of chain, in tokens,
// without touching recency, frequency or hit statistics — the
// side-effect-free probe routing policies use.
func (c *RadixCache) MatchTokens(chain []uint64) int {
	return c.matchLen(chain) * c.blockTokens
}

// Lookup returns the longest resident prefix of chain in tokens and
// records the access: every queried block's frequency is counted (misses
// inform future admission), matched blocks are re-prioritized, and hit
// statistics update.
func (c *RadixCache) Lookup(chain []uint64) int {
	if len(chain) == 0 {
		return 0
	}
	for _, h := range chain {
		c.sketch.touch(PrefixKey(h))
	}
	n := c.matchLen(chain)
	for _, h := range chain[:n] {
		c.refresh(c.blocks[h])
	}
	if n == 0 {
		c.Misses++
		return 0
	}
	c.Hits++
	tokens := n * c.blockTokens
	c.HitTokens += int64(tokens)
	return tokens
}

// RecomputeSeconds prices recomputing `blocks` blocks starting at block
// offset `fromBlock` on this replica — the recompute side of the cold
// tier's fetch-over-link vs recompute decision.
func (c *RadixCache) RecomputeSeconds(fromBlock, blocks int) float64 {
	s := 0.0
	for i := 0; i < blocks; i++ {
		s += c.depthCost(fromBlock + i)
	}
	return s
}

// victim returns the lowest-priority evictable leaf, skipping `pin` (the
// insertion path's current tip, which must not evict itself). nil when
// nothing is evictable.
func (c *RadixCache) victim(pin *radixNode) *radixNode {
	if len(c.leaves) == 0 {
		return nil
	}
	v := c.leaves[0]
	if v != pin {
		return v
	}
	// The pinned tip is the heap minimum: peek under it.
	c.leaves.remove(v)
	var next *radixNode
	if len(c.leaves) > 0 {
		next = c.leaves[0]
	}
	c.leaves.push(v)
	return next
}

// evict drops a leaf block for capacity. The GDSF clock advances to the
// victim's priority, so future insertions and refreshes outrank blocks
// that have not been touched since — this is what ages stale blocks out.
func (c *RadixCache) evict(v *radixNode) {
	if v.prio > c.clock {
		c.clock = v.prio
	}
	c.Evicted++
	c.drop(v, true)
}

// drop unlinks leaf v, promoting its parent to leaf when v was the
// parent's last child, and tells the observer before v is recycled.
func (c *RadixCache) drop(v *radixNode, evicted bool) {
	c.leaves.remove(v)
	delete(c.blocks, v.hash)
	c.used -= c.blockTokens
	if p := v.parent; p != nil {
		p.kids--
		if p.kids == 0 {
			c.leaves.push(p)
		}
	}
	if c.observer != nil {
		c.observer.blockDropped(v, evicted)
	}
	c.pool.put(v)
}

// insert adds one block under parent (nil for depth 0), assuming capacity
// has been made available.
func (c *RadixCache) insert(hash uint64, parent *radixNode, depth int) *radixNode {
	n := c.pool.get()
	n.hash = hash
	n.depth = depth
	n.parent = parent
	n.heapIdx = -1
	c.blocks[hash] = n
	c.used += c.blockTokens
	if parent != nil {
		if parent.kids == 0 {
			c.leaves.remove(parent)
		}
		parent.kids++
	}
	c.refresh(n) // sets prio
	c.leaves.push(n)
	if c.observer != nil {
		c.observer.blockAdded(n)
	}
	return n
}

// extend walks chain, refreshing the resident prefix and inserting the
// missing suffix block by block. admit applies the TinyLFU filter to each
// block whose insertion requires eviction; Install passes admit=false
// (migrated KV physically arrived — residency is a fact, not a bet).
// maxBlocks bounds how much of the chain is inserted (-1 = all). Insertion
// stops early when a block is rejected or nothing evictable remains:
// deeper blocks are useless without their prefix.
func (c *RadixCache) extend(chain []uint64, admit bool, maxBlocks int) {
	if maxBlocks < 0 || maxBlocks > len(chain) {
		maxBlocks = len(chain)
	}
	n := c.matchLen(chain)
	var tip *radixNode
	if n > 0 {
		tip = c.blocks[chain[n-1]]
		for _, h := range chain[:n] {
			c.refresh(c.blocks[h])
		}
	}
	for i := n; i < maxBlocks; i++ {
		for c.used+c.blockTokens > c.capacity {
			v := c.victim(tip)
			if v == nil {
				return // the path itself fills the cache
			}
			if admit && c.admission && c.sketch.estimate(PrefixKey(chain[i])) < c.sketch.estimate(PrefixKey(v.hash)) {
				c.Rejected++
				return
			}
			c.evict(v)
		}
		tip = c.insert(chain[i], tip, i)
	}
}

// Put inserts (or extends to) the chain after a completion produced its
// KV, subject to the admission filter under capacity pressure.
func (c *RadixCache) Put(chain []uint64) {
	c.extend(chain, true, -1)
}

// Install inserts up to limitTokens of the chain, bypassing admission: the
// KV arrived over the interconnect (a migration landing or a cold-tier
// fetch). Capacity is still enforced against resident victims.
func (c *RadixCache) Install(chain []uint64, limitTokens int) {
	c.extend(chain, false, limitTokens/c.blockTokens)
}

// RemoveExclusive deletes the deepest blocks of chain's resident prefix
// that no other path shares — the session-private tail a migration
// physically moves — and returns the tokens freed. Shared interior blocks
// (system prompts, branch trunks) stay: they are replicated, not owned.
// This models KV leaving the replica, so the Evicted counter is
// untouched.
func (c *RadixCache) RemoveExclusive(chain []uint64) int {
	n := c.matchLen(chain)
	freed := 0
	for i := n - 1; i >= 0; i-- {
		v := c.blocks[chain[i]]
		if v.kids > 0 {
			break
		}
		freed += c.blockTokens
		c.drop(v, false)
	}
	return freed
}

// Clear drops every resident block (a draining replica's KV dies with it).
// The observer hears one bulk cacheCleared instead of per-block drops:
// map iteration order is not deterministic, and a wipe is one fact, not
// len(blocks) facts.
func (c *RadixCache) Clear() {
	if c.observer != nil && len(c.blocks) > 0 {
		c.observer.cacheCleared(c.used)
	}
	for _, n := range c.blocks {
		c.pool.put(n)
	}
	c.blocks = make(map[uint64]*radixNode)
	c.leaves = c.leaves[:0]
	c.used = 0
}

// leafHeap is a hand-rolled indexed binary min-heap over leaf blocks,
// ordered by (priority, hash) — the hash tie-break keeps eviction order
// deterministic. The cold tier reuses it as a flat GDSF heap over its
// own copies.
type leafHeap []*radixNode

func leafLess(a, b *radixNode) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.hash < b.hash
}

func (h *leafHeap) push(n *radixNode) {
	*h = append(*h, n)
	n.heapIdx = len(*h) - 1
	h.up(n.heapIdx)
}

func (h *leafHeap) remove(n *radixNode) {
	i := n.heapIdx
	if i < 0 {
		return
	}
	s := *h
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		s[i].heapIdx = i
	}
	*h = s[:last]
	n.heapIdx = -1
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// fix restores heap order after n's priority changed in place.
func (h *leafHeap) fix(n *radixNode) {
	if !h.up(n.heapIdx) {
		h.down(n.heapIdx)
	}
}

func (h *leafHeap) up(i int) bool {
	s := *h
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !leafLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		s[i].heapIdx, s[p].heapIdx = i, p
		i = p
		moved = true
	}
	return moved
}

func (h *leafHeap) down(i int) {
	s := *h
	for {
		l := 2*i + 1
		if l >= len(s) {
			return
		}
		m := l
		if r := l + 1; r < len(s) && leafLess(s[r], s[l]) {
			m = r
		}
		if !leafLess(s[m], s[i]) {
			return
		}
		s[i], s[m] = s[m], s[i]
		s[i].heapIdx, s[m].heapIdx = i, m
		i = m
	}
}
