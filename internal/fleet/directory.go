package fleet

import "sort"

// The gateway-side global cache directory: which KV blocks have a
// resident copy at which location. Locations are replica indices plus the
// distinguished DirCold cold tier. The directory is kept coherent by
// residency observers wired into every replica's radix cache — inserts,
// capacity evictions, migration removals, drain wipes and crash wipes all
// land here through the same cache operations that change ground truth,
// so the directory never has a second code path to drift from.
// ContentAffinity routes on it; the cold tier registers its copies in it;
// coherence is property-tested against cache enumeration after random op
// sequences.

// DirCold is the directory location of the fleet-shared host-memory cold
// tier (replica locations are their indices, >= 0).
const DirCold = -1

// CacheDirectory maps block hashes to the locations holding a copy and the
// resident token count of each copy (the block size). All reads used for
// routing are keyed lookups — deterministic regardless of map iteration
// order.
type CacheDirectory struct {
	blockTokens int
	byHash      map[uint64]map[int]int // hash -> location -> tokens
	byLoc       map[int]map[uint64]int // location -> hash -> tokens
	locTokens   map[int]int            // location -> total resident tokens
}

// NewCacheDirectory builds an empty directory. blockTokens is the radix
// block granularity: the size of each copy and ChainOverlap's unit.
func NewCacheDirectory(blockTokens int) *CacheDirectory {
	return &CacheDirectory{
		blockTokens: blockTokens,
		byHash:      make(map[uint64]map[int]int),
		byLoc:       make(map[int]map[uint64]int),
		locTokens:   make(map[int]int),
	}
}

// Set records that loc holds tokens of hash (tokens <= 0 deletes the
// copy). Returns the signed token delta the operation applied at loc.
func (d *CacheDirectory) Set(hash uint64, loc, tokens int) int {
	prev := 0
	if m := d.byHash[hash]; m != nil {
		prev = m[loc]
	}
	if tokens <= 0 {
		if prev == 0 {
			return 0
		}
		delete(d.byHash[hash], loc)
		if len(d.byHash[hash]) == 0 {
			delete(d.byHash, hash)
		}
		delete(d.byLoc[loc], hash)
		if len(d.byLoc[loc]) == 0 {
			delete(d.byLoc, loc)
		}
		d.locTokens[loc] -= prev
		return -prev
	}
	if d.byHash[hash] == nil {
		d.byHash[hash] = make(map[int]int, 2)
	}
	d.byHash[hash][loc] = tokens
	if d.byLoc[loc] == nil {
		d.byLoc[loc] = make(map[uint64]int)
	}
	d.byLoc[loc][hash] = tokens
	d.locTokens[loc] += tokens - prev
	return tokens - prev
}

// Tokens returns the resident token count of hash at loc (0 = no copy).
func (d *CacheDirectory) Tokens(hash uint64, loc int) int {
	if m := d.byHash[hash]; m != nil {
		return m[loc]
	}
	return 0
}

// LocTokens returns the total resident tokens the directory attributes to
// loc.
func (d *CacheDirectory) LocTokens(loc int) int { return d.locTokens[loc] }

// LocBlocks returns every hash with a copy at loc, ascending — the
// enumeration coherence tests compare against a cache's ResidentBlocks.
func (d *CacheDirectory) LocBlocks(loc int) []uint64 {
	m := d.byLoc[loc]
	out := make([]uint64, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DropLoc wipes every copy at loc (a crash or drain wiped the replica's
// KV wholesale) and returns the tokens dropped.
func (d *CacheDirectory) DropLoc(loc int) int {
	m := d.byLoc[loc]
	for h := range m {
		hm := d.byHash[h]
		delete(hm, loc)
		if len(hm) == 0 {
			delete(d.byHash, h)
		}
	}
	delete(d.byLoc, loc)
	dropped := d.locTokens[loc]
	delete(d.locTokens, loc)
	return dropped
}

// ChainOverlap returns the longest directory-resident prefix of chain at
// loc, in tokens — the real-residency overlap ContentAffinity scores by.
func (d *CacheDirectory) ChainOverlap(chain []uint64, loc int) int {
	n := 0
	for n < len(chain) {
		if d.Tokens(chain[n], loc) == 0 {
			break
		}
		n++
	}
	return n * d.blockTokens
}

// ColdRun returns how many consecutive blocks of chain starting at block
// index `from` have a cold-tier copy — the contiguous run a cold fetch
// could splice onto a replica's resident prefix.
func (d *CacheDirectory) ColdRun(chain []uint64, from int) int {
	k := 0
	for from+k < len(chain) {
		if d.Tokens(chain[from+k], DirCold) == 0 {
			break
		}
		k++
	}
	return k
}

// Stats returns the number of distinct hashes known and total copies held.
func (d *CacheDirectory) Stats() (hashes, copies int) {
	hashes = len(d.byHash)
	for _, m := range d.byHash {
		copies += len(m)
	}
	return hashes, copies
}

// dirShim wires one replica's cache into the gateway's directory (and, on
// capacity evictions, into the cold tier). It implements
// residencyObserver; the hooks fire inside deterministic cache-operation
// order, so the emitted directory-update events replay identically.
type dirShim struct {
	g   *Gateway
	rep *replica
}

// blockAdded implements residencyObserver.
func (s *dirShim) blockAdded(ref *blockRef) {
	d := s.g.dir
	delta := d.Set(ref.hash, s.rep.index, d.blockTokens)
	if delta != 0 {
		s.g.emitDirUpdate(s.rep.index, delta, d.LocTokens(s.rep.index), "add")
	}
}

// blockDropped implements residencyObserver. Capacity evictions offer the
// block to the cold tier: the KV still physically existed at eviction
// time, so spilling it to host memory is a copy-out, not an invention.
// Removals (migration departures) and wipes never spill — that KV left or
// died.
func (s *dirShim) blockDropped(ref *blockRef, evicted bool) {
	d := s.g.dir
	if delta := d.Set(ref.hash, s.rep.index, 0); delta != 0 {
		s.g.emitDirUpdate(s.rep.index, delta, d.LocTokens(s.rep.index), "remove")
	}
	if evicted && s.g.cold != nil {
		s.g.coldSpill(s.rep, ref)
	}
}

// cacheCleared implements residencyObserver: one bulk wipe fact, not
// len(blocks) per-block drops (map iteration order would be
// nondeterministic, and wiped KV is never spillable).
func (s *dirShim) cacheCleared(usedTokens, blocks int) {
	dropped := s.g.dir.DropLoc(s.rep.index)
	if dropped != 0 {
		s.g.emitDirUpdate(s.rep.index, -dropped, 0, "wipe")
	}
}
