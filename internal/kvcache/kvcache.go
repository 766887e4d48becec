// Package kvcache provides key-value cache *accounting*: fixed-capacity
// token-slot pools per elastic instance and one placement record per
// request, which together form the cluster-wide unified distributed pool.
//
// LoongServe's central memory idea (§4) is that KV tensors are managed at
// the granularity of a single token with no locality constraint: a
// request's tokens may live on any subset of instances. Baseline systems
// keep the whole-request locality constraint, which produces the
// fragmentation of Fig 4 — six free slots spread over three instances
// cannot serve a six-token request. Both disciplines are expressible here:
// unified placement via DistributedPool.PlaceSpread, locality via
// PlaceSingle.
//
// The accounting is dense. Pools sit in a slice indexed by InstanceID and
// keep only a capacity and a used count. A request's placement record is
// the only record of where its tokens are; HeldOn, HeldBy and
// CheckInvariants derive from it. An engine that keeps a Ref to the record
// on its request pays a slice index and a pointer write per decode token,
// with no map operation.
//
// This package tracks only slot counts and placements; the actual tensor
// payloads live in internal/model.KVCache (functional layer) or are purely
// simulated (timing layer).
package kvcache

import (
	"cmp"
	"fmt"
	"slices"
)

// RequestID identifies a serving request.
type RequestID int64

// InstanceID identifies an elastic instance.
type InstanceID int

// Pool is the token-slot pool of a single elastic instance: a capacity and
// a used count. Which requests hold the used slots is recorded only in
// their placement records.
type Pool struct {
	capacity int
	used     int
}

// Capacity returns the total slot count.
func (p *Pool) Capacity() int { return p.capacity }

// Used returns the number of occupied slots.
func (p *Pool) Used() int { return p.used }

// Free returns the number of unoccupied slots.
func (p *Pool) Free() int { return p.capacity - p.used }

// instShare is one (instance, token count) component of a request's
// placement. Requests touch few instances, so a placement is a small slice:
// updating one is a scan and an in-place increment.
type instShare struct {
	id InstanceID
	n  int
}

// reqPlacement is the placement record of one request. owner and pool say
// whose record it is; recycling clears pool, so a Ref kept past the
// request's release no longer validates.
type reqPlacement struct {
	owner  RequestID
	pool   *DistributedPool // nil while the record is on the free list
	shares []instShare
}

func (pl *reqPlacement) idx(id InstanceID) int {
	for i := range pl.shares {
		if pl.shares[i].id == id {
			return i
		}
	}
	return -1
}

func (pl *reqPlacement) add(id InstanceID, n int) {
	if i := pl.idx(id); i >= 0 {
		pl.shares[i].n += n
		return
	}
	pl.shares = append(pl.shares, instShare{id, n})
}

func (pl *reqPlacement) total() int {
	t := 0
	for i := range pl.shares {
		t += pl.shares[i].n
	}
	return t
}

// Ref is a request's cached handle on its placement record, kept by the
// engine on the request (serving.Request.KV) and passed to AllocRef and
// EachPlacement. The zero Ref refers to nothing. A Ref is only a hint:
// the pool validates it on every use and refreshes it when it is stale.
// It names its pool so that a ref from another pool is rejected without
// reading that pool's record, which another replica's runner may be
// writing.
type Ref struct {
	pool *DistributedPool
	pl   *reqPlacement
}

// DistributedPool is the unified distributed KV cache pool: the pools of
// every elastic instance plus the per-request placement records.
type DistributedPool struct {
	pools      []Pool       // indexed by InstanceID
	all        []InstanceID // 0..n-1: the subset a nil subset means
	placements map[RequestID]*reqPlacement
	plFree     []*reqPlacement // recycled placement records
	order      []InstanceID    // PlaceSpread's sort scratch
	mostFree   func(a, b InstanceID) int
}

// NewDistributedPool builds a pool set from per-instance capacities,
// indexed by InstanceID.
func NewDistributedPool(capacities []int) *DistributedPool {
	d := &DistributedPool{
		pools:      make([]Pool, len(capacities)),
		all:        make([]InstanceID, len(capacities)),
		placements: make(map[RequestID]*reqPlacement),
	}
	for id, c := range capacities {
		if c < 0 {
			panic(fmt.Sprintf("kvcache: instance %d: negative capacity %d", id, c))
		}
		d.pools[id].capacity = c
		d.all[id] = InstanceID(id)
	}
	// Most free first, ties by ID: a total order, so the sort's result does
	// not depend on its algorithm.
	d.mostFree = func(a, b InstanceID) int {
		if c := cmp.Compare(d.pools[b].Free(), d.pools[a].Free()); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	return d
}

// record returns r's live placement record, creating it if r holds
// nothing.
func (d *DistributedPool) record(r RequestID) *reqPlacement {
	if pl := d.placements[r]; pl != nil {
		return pl
	}
	var pl *reqPlacement
	if k := len(d.plFree); k > 0 {
		pl = d.plFree[k-1]
		d.plFree[k-1] = nil
		d.plFree = d.plFree[:k-1]
	} else {
		pl = &reqPlacement{}
	}
	pl.owner, pl.pool = r, d
	d.placements[r] = pl
	return pl
}

// resolve returns r's live record, nil if r holds nothing. The cached
// record is used only while it is in this pool and still belongs to r;
// otherwise resolve goes through the index and points ref at r's record.
// A ref therefore never reaches another request's record: not after its
// request was preempted or released, and not after the request moved to
// another pool.
func (d *DistributedPool) resolve(ref *Ref, r RequestID) *reqPlacement {
	if ref.pool == d && ref.pl.pool == d && ref.pl.owner == r {
		return ref.pl
	}
	pl := d.placements[r]
	if pl != nil {
		*ref = Ref{pool: d, pl: pl}
	}
	return pl
}

// retire drops r's emptied record from the index and recycles it.
func (d *DistributedPool) retire(r RequestID, pl *reqPlacement) {
	delete(d.placements, r)
	pl.pool = nil
	pl.shares = pl.shares[:0]
	d.plFree = append(d.plFree, pl)
}

// Pool returns the pool of one instance, or nil for an unknown ID.
func (d *DistributedPool) Pool(id InstanceID) *Pool {
	if id < 0 || int(id) >= len(d.pools) {
		return nil
	}
	return &d.pools[id]
}

func (d *DistributedPool) orAll(subset []InstanceID) []InstanceID {
	if subset == nil {
		return d.all
	}
	return subset
}

// TotalFree returns free slots summed over a subset of instances (all when
// subset is nil). An unknown instance holds no free slot.
func (d *DistributedPool) TotalFree(subset []InstanceID) int {
	t := 0
	for _, id := range d.orAll(subset) {
		if p := d.Pool(id); p != nil {
			t += p.Free()
		}
	}
	return t
}

// TotalCapacity returns capacity summed over all instances.
func (d *DistributedPool) TotalCapacity() int {
	t := 0
	for i := range d.pools {
		t += d.pools[i].capacity
	}
	return t
}

// TotalUsed returns used slots summed over all instances.
func (d *DistributedPool) TotalUsed() int {
	t := 0
	for i := range d.pools {
		t += d.pools[i].used
	}
	return t
}

// MaxFree returns the largest per-instance free count within subset (all
// when nil) and the instance achieving it. Ties break toward the lower ID
// for determinism. Unknown instances are skipped, so a subset with no
// known instance returns (-1, -1).
func (d *DistributedPool) MaxFree(subset []InstanceID) (InstanceID, int) {
	best, bestFree := InstanceID(-1), -1
	for _, id := range d.orAll(subset) {
		p := d.Pool(id)
		if p == nil {
			continue
		}
		if f := p.Free(); f > bestFree {
			best, bestFree = id, f
		}
	}
	return best, bestFree
}

// FitsUnified reports whether n tokens fit under the unified (token
// granularity, no locality) discipline within subset: total free >= n,
// counting no free slot on an unknown instance.
func (d *DistributedPool) FitsUnified(n int, subset []InstanceID) bool {
	return d.TotalFree(subset) >= n
}

// FitsLocal reports whether n tokens fit under the whole-request locality
// constraint within subset: some single known instance has >= n free. This
// is the discipline that produces Fig 4's fragmentation.
func (d *DistributedPool) FitsLocal(n int, subset []InstanceID) bool {
	_, f := d.MaxFree(subset)
	return f >= n
}

// Fragmentation returns 1 - maxFree/totalFree over all instances: zero when
// one instance holds all the free space (no fragmentation), approaching
// 1-1/m when free space is spread evenly over m instances.
func (d *DistributedPool) Fragmentation() float64 {
	total := d.TotalFree(nil)
	if total == 0 {
		return 0
	}
	_, max := d.MaxFree(nil)
	return 1 - float64(max)/float64(total)
}

// HeldOn returns the tokens request r holds on one instance.
func (d *DistributedPool) HeldOn(r RequestID, id InstanceID) int {
	pl := d.placements[r]
	if pl == nil {
		return 0
	}
	if i := pl.idx(id); i >= 0 {
		return pl.shares[i].n
	}
	return 0
}

// EachPlacement calls f for every (instance, tokens) share of request r,
// reached through the request's handle as in AllocRef. Every share is
// positive. Share order is deterministic for a given operation history but
// otherwise unspecified (partial releases compact the share list); callers
// must not mutate the pool during iteration.
func (d *DistributedPool) EachPlacement(ref *Ref, r RequestID, f func(InstanceID, int)) {
	pl := d.resolve(ref, r)
	if pl == nil {
		return
	}
	for _, s := range pl.shares {
		f(s.id, s.n)
	}
}

// HeldBy returns the total tokens request r holds across the cluster.
func (d *DistributedPool) HeldBy(r RequestID) int {
	pl := d.placements[r]
	if pl == nil {
		return 0
	}
	return pl.total()
}

// AllocAt reserves n slots for r on a specific instance.
func (d *DistributedPool) AllocAt(r RequestID, id InstanceID, n int) error {
	var ref Ref
	return d.AllocRef(&ref, r, id, n)
}

// AllocRef reserves n slots for r on a specific instance through the
// request's handle: on a live ref, a slice index and a pointer write. A
// stale ref is refreshed from the index and never writes into another
// request's record (see resolve). It fails without side effects on an
// unknown instance, a negative n or too few free slots.
func (d *DistributedPool) AllocRef(ref *Ref, r RequestID, id InstanceID, n int) error {
	p := d.Pool(id)
	if p == nil {
		return fmt.Errorf("kvcache: unknown instance %d", id)
	}
	if n < 0 {
		return fmt.Errorf("kvcache: instance %d: negative alloc %d", id, n)
	}
	if p.Free() < n {
		return fmt.Errorf("kvcache: instance %d: alloc %d exceeds %d free", id, n, p.Free())
	}
	if n == 0 {
		return nil
	}
	pl := d.resolve(ref, r)
	if pl == nil {
		pl = d.record(r)
		*ref = Ref{pool: d, pl: pl}
	}
	p.used += n
	pl.add(id, n)
	return nil
}

// PlaceSpread allocates n tokens for r across subset (all instances when
// nil) with no locality constraint, most-free-first — LoongServe's unified
// placement. A subset that names an unknown instance, or one instance
// twice, is an error. On failure nothing is allocated.
func (d *DistributedPool) PlaceSpread(r RequestID, n int, subset []InstanceID) error {
	subset = d.orAll(subset)
	if n < 0 {
		return fmt.Errorf("kvcache: negative spread %d", n)
	}
	for _, id := range subset {
		if d.Pool(id) == nil {
			return fmt.Errorf("kvcache: unknown instance %d", id)
		}
	}
	order := append(d.order[:0], subset...)
	slices.SortFunc(order, d.mostFree)
	d.order = order
	// The order is total (most free, then ID), so a repeated ID sorts next
	// to itself; counted twice, its free slots would pass the fit check.
	free := 0
	for i, id := range order {
		if i > 0 && id == order[i-1] {
			return fmt.Errorf("kvcache: instance %d named twice in a spread subset", id)
		}
		free += d.pools[id].Free()
	}
	if free < n {
		return fmt.Errorf("kvcache: %d tokens exceed %d free across %d instances", n, free, len(subset))
	}
	var pl *reqPlacement
	for _, id := range order {
		if n == 0 {
			break
		}
		p := &d.pools[id]
		take := min(p.Free(), n)
		if take == 0 {
			continue
		}
		if pl == nil {
			pl = d.record(r)
		}
		p.used += take
		pl.add(id, take)
		n -= take
	}
	return nil
}

// PlaceSingle allocates n tokens for r on one instance (the fullest that
// still fits, for best packing) — the locality discipline of the baselines.
// A subset that names an unknown instance is an error, and nothing is
// allocated.
func (d *DistributedPool) PlaceSingle(r RequestID, n int, subset []InstanceID) (InstanceID, error) {
	subset = d.orAll(subset)
	best, bestFree := InstanceID(-1), -1
	for _, id := range subset {
		p := d.Pool(id)
		if p == nil {
			return -1, fmt.Errorf("kvcache: unknown instance %d", id)
		}
		f := p.Free()
		if f >= n && (bestFree == -1 || f < bestFree || (f == bestFree && id < best)) {
			best, bestFree = id, f
		}
	}
	if best == -1 {
		_, maxFree := d.MaxFree(subset)
		return -1, fmt.Errorf("kvcache: no single instance fits %d tokens (max free %d)", n, maxFree)
	}
	if err := d.AllocAt(r, best, n); err != nil {
		return -1, err
	}
	return best, nil
}

// ReleaseAt frees n of r's slots on one instance. It fails without side
// effects on an unknown instance, a negative n or more than r holds there.
func (d *DistributedPool) ReleaseAt(r RequestID, id InstanceID, n int) error {
	p := d.Pool(id)
	if p == nil {
		return fmt.Errorf("kvcache: unknown instance %d", id)
	}
	if n < 0 {
		return fmt.Errorf("kvcache: instance %d: negative release %d", id, n)
	}
	pl, i, have := d.placements[r], -1, 0
	if pl != nil {
		if i = pl.idx(id); i >= 0 {
			have = pl.shares[i].n
		}
	}
	if n > have {
		return fmt.Errorf("kvcache: instance %d: release %d > held %d for request %d", id, n, have, r)
	}
	if n == 0 {
		return nil
	}
	p.used -= n
	pl.shares[i].n -= n
	if pl.shares[i].n > 0 {
		return nil
	}
	last := len(pl.shares) - 1
	pl.shares[i] = pl.shares[last]
	pl.shares = pl.shares[:last]
	if last == 0 {
		d.retire(r, pl)
	}
	return nil
}

// ReleaseRequest frees everything request r holds anywhere and returns the
// total freed.
func (d *DistributedPool) ReleaseRequest(r RequestID) int {
	pl := d.placements[r]
	if pl == nil {
		return 0
	}
	total := 0
	for _, s := range pl.shares {
		d.pools[s.id].used -= s.n
		total += s.n
	}
	d.retire(r, pl)
	return total
}

// Move transfers n of r's tokens from src to dst (dst must have room).
// Returns an error and changes nothing on violation.
func (d *DistributedPool) Move(r RequestID, src, dst InstanceID, n int) error {
	pd := d.Pool(dst)
	if pd == nil {
		return fmt.Errorf("kvcache: unknown instance %d", dst)
	}
	if have := d.HeldOn(r, src); have < n {
		return fmt.Errorf("kvcache: request %d holds %d on instance %d, cannot move %d", r, have, src, n)
	}
	if pd.Free() < n {
		return fmt.Errorf("kvcache: instance %d has %d free, cannot receive %d", dst, pd.Free(), n)
	}
	if err := d.ReleaseAt(r, src, n); err != nil {
		return err
	}
	return d.AllocAt(r, dst, n)
}

// CheckInvariants verifies internal consistency: every placement record
// belongs to the request it is filed under and holds only positive shares
// on known instances, each pool's used count equals the sum of the shares
// on it, and no pool is outside [0, capacity]. It is used by tests and
// property checks.
func (d *DistributedPool) CheckInvariants() error {
	sums := make([]int, len(d.pools))
	for r, pl := range d.placements {
		if pl.owner != r || pl.pool != d {
			return fmt.Errorf("kvcache: request %d filed under a record owned by request %d", r, pl.owner)
		}
		if len(pl.shares) == 0 {
			return fmt.Errorf("kvcache: request %d has an empty placement record", r)
		}
		for _, s := range pl.shares {
			if s.n <= 0 {
				return fmt.Errorf("kvcache: request %d holds %d on instance %d", r, s.n, s.id)
			}
			if d.Pool(s.id) == nil {
				return fmt.Errorf("kvcache: request %d holds %d on unknown instance %d", r, s.n, s.id)
			}
			sums[s.id] += s.n
		}
	}
	for id, p := range d.pools {
		if sums[id] != p.used {
			return fmt.Errorf("kvcache: instance %d used %d != held sum %d", id, p.used, sums[id])
		}
		if p.used > p.capacity || p.used < 0 {
			return fmt.Errorf("kvcache: instance %d used %d out of [0, %d]", id, p.used, p.capacity)
		}
	}
	return nil
}
