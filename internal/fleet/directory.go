package fleet

// The gateway-side global cache directory: which KV blocks have a
// resident copy at which location. Locations are replica indices plus the
// distinguished DirCold cold tier. The residency layers — each replica's
// RadixCache and the cold tier — are the directory's only state; with
// Config.Directory on, the shim below publishes every change to them as a
// directory-update event (and the cold tier its spills and evictions), on
// the call stack of the cache operation that made the change: inserts,
// capacity evictions, migration removals, drain wipes and crash wipes.
// Replaying the stream per location therefore reproduces each cache's
// resident tokens exactly, which is what the auditor and the coherence
// tests check.

// DirCold is the directory location of the fleet-shared host-memory cold
// tier (replica locations are their indices, >= 0).
const DirCold = -1

// dirShim publishes one replica cache's residency transitions and offers
// its capacity evictions to the cold tier. It implements
// residencyObserver; the hooks fire inside deterministic cache-operation
// order, so the emitted directory-update events replay identically.
type dirShim struct {
	g   *Gateway
	rep *replica
}

// blockAdded implements residencyObserver.
func (s *dirShim) blockAdded(*radixNode) {
	c := s.rep.radix
	s.g.emitDirUpdate(s.rep.index, c.blockTokens, c.used, "add")
}

// blockDropped implements residencyObserver. Capacity evictions offer the
// block to the cold tier: the KV still physically existed at eviction
// time, so spilling it to host memory is a copy-out, not an invention.
// Removals (migration departures) and wipes never spill — that KV left or
// died.
func (s *dirShim) blockDropped(n *radixNode, evicted bool) {
	c := s.rep.radix
	s.g.emitDirUpdate(s.rep.index, -c.blockTokens, c.used, "remove")
	if evicted && s.g.cold != nil {
		s.g.cold.spill(s.rep.index, n.hash, n.depth)
	}
}

// cacheCleared implements residencyObserver: one bulk wipe fact, not
// len(blocks) per-block drops (map iteration order would be
// nondeterministic, and wiped KV is never spillable).
func (s *dirShim) cacheCleared(usedTokens int) {
	s.g.emitDirUpdate(s.rep.index, -usedTokens, 0, "wipe")
}
