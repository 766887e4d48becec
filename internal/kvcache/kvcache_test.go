package kvcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// A one-instance pool: capacity, free and used counts move with allocs and
// releases, over-allocation and over-release fail without side effects.
func TestPoolAllocRelease(t *testing.T) {
	d := NewDistributedPool([]int{10})
	p := d.Pool(0)
	if p.Capacity() != 10 || p.Free() != 10 || p.Used() != 0 {
		t.Fatalf("fresh pool wrong: cap=%d free=%d used=%d", p.Capacity(), p.Free(), p.Used())
	}
	if err := d.AllocAt(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.AllocAt(2, 0, 6); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 0 {
		t.Fatalf("free %d, want 0", p.Free())
	}
	if err := d.AllocAt(3, 0, 1); err == nil {
		t.Fatal("overflow alloc succeeded")
	}
	if err := d.ReleaseAt(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if d.HeldOn(1, 0) != 2 || p.Free() != 2 {
		t.Fatalf("after partial release: held=%d free=%d", d.HeldOn(1, 0), p.Free())
	}
	if err := d.ReleaseAt(1, 0, 3); err == nil {
		t.Fatal("over-release succeeded")
	}
	if n := d.ReleaseRequest(2); n != 6 {
		t.Fatalf("ReleaseRequest freed %d, want 6", n)
	}
	if p.Free() != 8 || p.Used() != 2 {
		t.Fatalf("free %d used %d, want 8 and 2", p.Free(), p.Used())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A zero-token alloc succeeds and creates no placement record.
func TestPoolZeroAllocNoHold(t *testing.T) {
	d := NewDistributedPool([]int{5})
	if err := d.AllocAt(7, 0, 0); err != nil {
		t.Fatal(err)
	}
	var ref Ref
	if err := d.AllocRef(&ref, 7, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PlaceSpread(7, 0, nil); err != nil {
		t.Fatal(err)
	}
	if len(d.placements) != 0 || ref != (Ref{}) {
		t.Fatalf("zero alloc created a record (%d records, ref %+v)", len(d.placements), ref)
	}
	if err := d.ReleaseAt(7, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPoolNegativeAllocRejected(t *testing.T) {
	d := NewDistributedPool([]int{5})
	var ref Ref
	if err := d.AllocAt(1, 0, -1); err == nil {
		t.Fatal("negative alloc accepted")
	}
	if err := d.AllocRef(&ref, 1, 0, -1); err == nil {
		t.Fatal("negative alloc through a ref accepted")
	}
	if err := d.ReleaseAt(1, 0, -1); err == nil {
		t.Fatal("negative release accepted")
	}
	if err := d.PlaceSpread(1, -1, nil); err == nil {
		t.Fatal("negative spread accepted")
	}
	if err := d.AllocAt(1, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(1, 0, 0, -1); err == nil {
		t.Fatal("negative move accepted")
	}
	if d.TotalUsed() != 3 || d.HeldBy(1) != 3 {
		t.Fatalf("rejected calls changed the pool: used %d, held %d", d.TotalUsed(), d.HeldBy(1))
	}
}

// HeldOn, HeldBy and EachPlacement read one request's record: its positive
// shares only, and nothing for a request that holds nothing.
func TestPlacementBasics(t *testing.T) {
	d := NewDistributedPool([]int{10, 10, 10, 10, 10, 10})
	for _, a := range []struct {
		id InstanceID
		n  int
	}{{1, 3}, {5, 7}, {1, 1}, {2, 0}} {
		if err := d.AllocAt(9, a.id, a.n); err != nil {
			t.Fatal(err)
		}
	}
	if d.HeldBy(9) != 11 || d.HeldOn(9, 1) != 4 || d.HeldOn(9, 5) != 7 || d.HeldOn(9, 2) != 0 {
		t.Fatalf("held: total %d, on 1 %d, on 5 %d, on 2 %d", d.HeldBy(9), d.HeldOn(9, 1), d.HeldOn(9, 5), d.HeldOn(9, 2))
	}
	got := map[InstanceID]int{}
	d.EachPlacement(&Ref{}, 9, func(id InstanceID, n int) { got[id] += n })
	if len(got) != 2 || got[1] != 4 || got[5] != 7 {
		t.Fatalf("EachPlacement visited %v", got)
	}
	if err := d.ReleaseAt(9, 5, 7); err != nil {
		t.Fatal(err)
	}
	clear(got)
	d.EachPlacement(&Ref{}, 9, func(id InstanceID, n int) { got[id] += n })
	if len(got) != 1 || got[1] != 4 {
		t.Fatalf("after releasing instance 5, EachPlacement visited %v", got)
	}
	d.EachPlacement(&Ref{}, 10, func(InstanceID, int) { t.Fatal("visited a share of a request that holds nothing") })
	if d.HeldBy(10) != 0 || d.HeldOn(10, 1) != 0 {
		t.Fatal("a request that holds nothing reads non-zero")
	}
}

func newTestPool() *DistributedPool {
	return NewDistributedPool([]int{10, 10, 10})
}

// Fig 4 of the paper: six free slots spread across three instances (two
// each) cannot serve a six-token request under the locality constraint, but
// the unified distributed pool can.
func TestFig4FragmentationExample(t *testing.T) {
	d := NewDistributedPool([]int{2, 2, 2})
	if !d.FitsUnified(6, nil) {
		t.Fatal("unified pool should fit 6 tokens")
	}
	if d.FitsLocal(6, nil) {
		t.Fatal("locality constraint should NOT fit 6 tokens")
	}
	if err := d.PlaceSpread(42, 6, nil); err != nil {
		t.Fatal(err)
	}
	if d.HeldBy(42) != 6 {
		t.Fatalf("placed %d, want 6", d.HeldBy(42))
	}
	if _, err := d.PlaceSingle(43, 1, nil); err == nil {
		t.Fatal("pool is full; PlaceSingle should fail")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceSpreadMostFreeFirst(t *testing.T) {
	d := newTestPool()
	// Pre-fill instance 0 so it has least free.
	if err := d.AllocAt(1, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := d.PlaceSpread(2, 12, nil); err != nil {
		t.Fatal(err)
	}
	// Instances 1 and 2 (10 free each, tie broken by ID) absorb 10 + 2; the
	// least-free instance 0 receives nothing.
	if d.HeldOn(2, 0) != 0 || d.HeldOn(2, 1) != 10 || d.HeldOn(2, 2) != 2 {
		t.Fatalf("spread placed %d/%d/%d on instances 0/1/2, want 0/10/2", d.HeldOn(2, 0), d.HeldOn(2, 1), d.HeldOn(2, 2))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceSpreadRejectsWhenFull(t *testing.T) {
	d := newTestPool()
	if err := d.PlaceSpread(1, 31, nil); err == nil {
		t.Fatal("over-capacity spread succeeded")
	}
	if d.TotalUsed() != 0 {
		t.Fatal("failed placement leaked slots")
	}
}

func TestPlaceSpreadSubset(t *testing.T) {
	d := newTestPool()
	if err := d.PlaceSpread(1, 15, []InstanceID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if d.HeldOn(1, 2) != 0 {
		t.Fatal("placement escaped the subset")
	}
	if d.HeldOn(1, 0)+d.HeldOn(1, 1) != 15 {
		t.Fatalf("subset placement total %d", d.HeldOn(1, 0)+d.HeldOn(1, 1))
	}

	// A subset that names an instance twice is rejected whole, whether or
	// not the tokens would fit: counted twice, two 5-slot instances would
	// pass the fit check for 8 tokens and place only 5.
	d = NewDistributedPool([]int{5, 5})
	for _, sub := range [][]InstanceID{{0, 0}, {1, 0, 1}} {
		if err := d.PlaceSpread(2, 8, sub); err == nil {
			t.Fatalf("spread of 8 tokens over %v accepted", sub)
		}
		if err := d.PlaceSpread(2, 1, sub); err == nil {
			t.Fatalf("spread of 1 token over %v accepted", sub)
		}
	}
	if d.HeldBy(2) != 0 || d.TotalUsed() != 0 {
		t.Fatalf("rejected spreads placed %d tokens (used %d)", d.HeldBy(2), d.TotalUsed())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceSingleTightestFit(t *testing.T) {
	d := newTestPool()
	if err := d.AllocAt(9, 1, 6); err != nil { // instance 1 has 4 free
		t.Fatal(err)
	}
	id, err := d.PlaceSingle(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tightest fit: instance 1 (4 free) over instances 0/2 (10 free).
	if id != 1 {
		t.Fatalf("placed on %d, want 1", id)
	}
}

func TestHeldByAndRelease(t *testing.T) {
	d := newTestPool()
	if err := d.PlaceSpread(7, 25, nil); err != nil {
		t.Fatal(err)
	}
	if d.HeldBy(7) != 25 {
		t.Fatalf("HeldBy = %d", d.HeldBy(7))
	}
	freed := d.ReleaseRequest(7)
	if freed != 25 || d.TotalUsed() != 0 {
		t.Fatalf("freed %d, used %d", freed, d.TotalUsed())
	}
	if d.HeldBy(7) != 0 {
		t.Fatal("HeldBy nonzero after release")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAtPartial(t *testing.T) {
	d := newTestPool()
	if err := d.AllocAt(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.ReleaseAt(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if d.HeldBy(1) != 3 || d.Pool(0).Free() != 7 {
		t.Fatalf("held %d free %d", d.HeldBy(1), d.Pool(0).Free())
	}
	if err := d.ReleaseAt(1, 0, 10); err == nil {
		t.Fatal("over-release accepted")
	}
}

func TestMoveTokens(t *testing.T) {
	d := newTestPool()
	if err := d.AllocAt(1, 0, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(1, 0, 2, 4); err != nil {
		t.Fatal(err)
	}
	if d.HeldOn(1, 0) != 2 || d.HeldOn(1, 2) != 4 || d.HeldBy(1) != 6 {
		t.Fatalf("placement after move: %d on 0, %d on 2, %d held", d.HeldOn(1, 0), d.HeldOn(1, 2), d.HeldBy(1))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Moving more than held fails cleanly.
	if err := d.Move(1, 0, 2, 5); err == nil {
		t.Fatal("over-move accepted")
	}
	// Moving into a full instance fails cleanly.
	if err := d.AllocAt(2, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(1, 0, 1, 1); err == nil {
		t.Fatal("move into full instance accepted")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationMetric(t *testing.T) {
	d := NewDistributedPool([]int{10, 10})
	if d.Fragmentation() != 0.5 {
		t.Fatalf("even split fragmentation = %v, want 0.5", d.Fragmentation())
	}
	if err := d.AllocAt(1, 1, 10); err != nil { // all free space now on 0
		t.Fatal(err)
	}
	if d.Fragmentation() != 0 {
		t.Fatalf("single-instance free fragmentation = %v, want 0", d.Fragmentation())
	}
	if err := d.AllocAt(2, 0, 10); err != nil { // completely full
		t.Fatal(err)
	}
	if d.Fragmentation() != 0 {
		t.Fatalf("full pool fragmentation = %v, want 0", d.Fragmentation())
	}
}

func TestMaxFreeDeterministicTieBreak(t *testing.T) {
	d := newTestPool()
	id, f := d.MaxFree(nil)
	if id != 0 || f != 10 {
		t.Fatalf("MaxFree = (%d, %d), want (0, 10)", id, f)
	}
}

func TestUnknownInstanceErrors(t *testing.T) {
	d := newTestPool()
	for _, id := range []InstanceID{-1, 3, 99} {
		if d.Pool(id) != nil {
			t.Fatalf("Pool(%d) is not nil", id)
		}
	}
	var ref Ref
	if err := d.AllocAt(1, 99, 1); err == nil {
		t.Fatal("alloc on unknown instance accepted")
	}
	if err := d.AllocRef(&ref, 1, -1, 1); err == nil {
		t.Fatal("alloc through a ref on unknown instance accepted")
	}
	if err := d.ReleaseAt(1, 99, 1); err == nil {
		t.Fatal("release on unknown instance accepted")
	}
	if err := d.PlaceSpread(1, 1, []InstanceID{0, 99}); err == nil {
		t.Fatal("spread over an unknown instance accepted")
	}
	for _, sub := range [][]InstanceID{{99}, {0, 3}, {-1, 0}} {
		if id, err := d.PlaceSingle(1, 1, sub); err == nil {
			t.Fatalf("single placement over %v accepted (on %d)", sub, id)
		}
	}
	if d.TotalUsed() != 0 {
		t.Fatalf("rejected placements used %d slots", d.TotalUsed())
	}
	if err := d.AllocAt(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(1, 0, 99, 1); err == nil {
		t.Fatal("move to unknown instance accepted")
	}
	if err := d.Move(1, 99, 0, 1); err == nil {
		t.Fatal("move from unknown instance accepted")
	}
	if d.HeldOn(1, 0) != 4 || d.TotalUsed() != 4 {
		t.Fatalf("rejected calls changed the pool: held %d, used %d", d.HeldOn(1, 0), d.TotalUsed())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The readers count an unknown instance as holding no free slot, as
	// Pool returns nil for it, instead of indexing past the pools.
	free0, free1 := d.Pool(0).Free(), d.Pool(1).Free()
	if got := d.TotalFree([]InstanceID{0, 5}); got != free0 {
		t.Fatalf("TotalFree({0, 5}) = %d, want instance 0's %d", got, free0)
	}
	if got := d.TotalFree([]InstanceID{-1, 99}); got != 0 {
		t.Fatalf("TotalFree over unknown instances = %d, want 0", got)
	}
	if id, f := d.MaxFree([]InstanceID{-1, 1, 7}); id != 1 || f != free1 {
		t.Fatalf("MaxFree({-1, 1, 7}) = (%d, %d), want (1, %d)", id, f, free1)
	}
	for _, sub := range [][]InstanceID{{-1}, {3, 99}} {
		if id, f := d.MaxFree(sub); id != -1 || f != -1 {
			t.Fatalf("MaxFree(%v) = (%d, %d), want (-1, -1)", sub, id, f)
		}
	}
	if d.FitsUnified(free0+1, []InstanceID{0, 5}) || !d.FitsUnified(free0, []InstanceID{0, 5}) {
		t.Fatalf("FitsUnified over {0, 5} does not count exactly instance 0's %d free slots", free0)
	}
	if d.FitsLocal(1, []InstanceID{7}) || d.FitsLocal(0, []InstanceID{-1}) {
		t.Fatal("FitsLocal fits a request on an unknown instance")
	}
	if !d.FitsLocal(free1, []InstanceID{99, 1}) || d.FitsLocal(free1+1, []InstanceID{99, 1}) {
		t.Fatalf("FitsLocal over {99, 1} does not see exactly instance 1's %d free slots", free1)
	}
}

// Property: any random sequence of spread and single placements, allocs on
// random (sometimes unknown) instances, allocs through refs kept across
// operations, moves, and partial and full releases preserves the pool
// invariants and changes the holdings of no request but the one operated
// on. The kept refs go stale the ways an engine's refs do: after their
// request is released, after their record is recycled to another request,
// and when they come from another pool.
func TestPropertyPoolInvariantsUnderRandomOps(t *testing.T) {
	var released, recycled, foreign int // stale refs used, by kind
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(5) + 1
		caps := make([]int, m)
		for i := range caps {
			caps[i] = rng.Intn(40)
		}
		d := NewDistributedPool(caps)
		other := NewDistributedPool([]int{1 << 20}) // where foreign refs come from
		var ids []RequestID
		refs := map[RequestID]*Ref{} // kept across operations, as engines keep them on requests
		holdings := func() []int {
			h := make([]int, 0, len(ids)*m)
			for _, q := range ids {
				for id := 0; id < m; id++ {
					h = append(h, d.HeldOn(q, InstanceID(id)))
				}
			}
			return h
		}
		for op := 0; op < 200; op++ {
			// Mostly a known request, live or released; sometimes a new one.
			if len(ids) == 0 || rng.Intn(4) == 0 {
				ids = append(ids, RequestID(len(ids)+1))
				refs[ids[len(ids)-1]] = &Ref{}
			}
			qi := rng.Intn(len(ids))
			r := ids[qi]
			id := InstanceID(rng.Intn(m + 1)) // m is an unknown instance
			n := rng.Intn(12) - 1             // -1 is invalid
			before := holdings()
			foreignHeld := other.HeldBy(r)
			allocOK := -1 // for the alloc operations: 1 when it must succeed, 0 when it must fail
			var err error
			switch kind := rng.Intn(8); kind {
			case 0:
				_ = d.PlaceSpread(r, rng.Intn(30), nil)
			case 1:
				_, _ = d.PlaceSingle(r, rng.Intn(20), nil)
			case 2:
				d.ReleaseRequest(r) // r's ref stays behind, stale
			case 3:
				src := InstanceID(rng.Intn(m))
				_ = d.Move(r, src, id, rng.Intn(d.HeldOn(r, src)+1)) // may legitimately fail
			case 4:
				src := InstanceID(rng.Intn(m))
				if err := d.ReleaseAt(r, src, rng.Intn(d.HeldOn(r, src)+1)); err != nil {
					t.Logf("op %d: partial release: %v", op, err)
					return false
				}
			default: // 5: AllocAt; 6: AllocRef through r's kept ref; 7: through a ref from another pool
				allocOK = 0
				if p := d.Pool(id); p != nil && n >= 0 && p.Free() >= n {
					allocOK = 1
				}
				if kind == 5 {
					err = d.AllocAt(r, id, n)
					break
				}
				ref := refs[r]
				if kind == 7 {
					ref = &Ref{}
					if err := other.AllocRef(ref, r, 0, 1); err != nil {
						t.Logf("op %d: foreign alloc: %v", op, err)
						return false
					}
					foreignHeld++
				}
				switch {
				case ref.pool == nil:
				case ref.pool != d:
					foreign++
				case ref.pl.pool == nil:
					released++
				case ref.pl.owner != r:
					recycled++
				}
				err = d.AllocRef(ref, r, id, n)
				if err == nil && n > 0 && (ref.pool != d || ref.pl != d.placements[r]) {
					t.Logf("op %d: ref not refreshed to request %d's record", op, r)
					return false
				}
			}
			if allocOK >= 0 && (err == nil) != (allocOK == 1) {
				t.Logf("op %d: alloc %d on instance %d: err %v, want success %v", op, n, id, err, allocOK == 1)
				return false
			}
			if err := d.CheckInvariants(); err != nil {
				t.Logf("op %d: %v", op, err)
				return false
			}
			if err := other.CheckInvariants(); err != nil || other.HeldBy(r) != foreignHeld {
				t.Logf("op %d: the foreign pool changed: %v, request %d holds %d, want %d", op, err, r, other.HeldBy(r), foreignHeld)
				return false
			}
			// The operated request's shares, read through (a copy of) its
			// kept ref, agree with the index.
			probe, sum := *refs[r], 0
			d.EachPlacement(&probe, r, func(id InstanceID, n int) {
				if n <= 0 || d.HeldOn(r, id) != n {
					sum = -1 << 30
				}
				sum += n
			})
			if sum != d.HeldBy(r) {
				t.Logf("op %d: request %d's shares through its ref disagree with the index", op, r)
				return false
			}
			after := holdings()
			for k := range before {
				q, inst := k/m, InstanceID(k%m)
				if q == qi && (allocOK < 0 || inst == id && allocOK == 1) {
					if allocOK == 1 && after[k] != before[k]+n {
						t.Logf("op %d: request %d holds %d on instance %d after allocating %d, was %d", op, r, after[k], inst, n, before[k])
						return false
					}
					continue
				}
				if after[k] != before[k] {
					t.Logf("op %d on request %d changed request %d's holding on instance %d: %d -> %d", op, r, ids[q], inst, before[k], after[k])
					return false
				}
			}
		}
		// Releasing everything must return the pool to empty.
		for _, r := range ids {
			d.ReleaseRequest(r)
		}
		return d.TotalUsed() == 0 && d.CheckInvariants() == nil
	}
	// A fixed source keeps the stale-ref coverage check below deterministic.
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("stale refs used: %d released, %d recycled, %d foreign", released, recycled, foreign)
	if released == 0 || recycled == 0 || foreign == 0 {
		t.Fatalf("stale refs used: %d released, %d recycled, %d foreign; want each kind", released, recycled, foreign)
	}
}

// Property: FitsUnified is exactly "total free >= n" and PlaceSpread
// succeeds iff FitsUnified.
func TestPropertySpreadMatchesFits(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		caps := make([]int, rng.Intn(4)+1)
		for i := range caps {
			caps[i] = rng.Intn(25)
		}
		d := NewDistributedPool(caps)
		n := int(nRaw % 100)
		fits := d.FitsUnified(n, nil)
		err := d.PlaceSpread(1, n, nil)
		return fits == (err == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The decode hot path allocates one slot per running request per iteration;
// with slice-backed placements the steady state must not allocate.
func TestAllocAtSteadyStateAllocs(t *testing.T) {
	d := NewDistributedPool([]int{1 << 20})
	if err := d.AllocAt(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := d.AllocAt(1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AllocAt(+1) steady state allocates %.1f objects per call, want 0", avg)
	}
	if got := d.HeldOn(1, 0); got != 301 {
		t.Fatalf("HeldOn = %d, want 301", got)
	}
}

// A decode token through a live ref costs a slice index and a pointer
// write: no allocation, and no placement-index lookup to fall back on.
func TestAllocRefLiveRefAllocatesNothing(t *testing.T) {
	d := NewDistributedPool([]int{1 << 20, 1 << 20})
	var ref Ref
	if err := d.AllocRef(&ref, 1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := d.AllocRef(&ref, 1, 1, 100); err != nil {
		t.Fatal(err)
	}
	live := ref
	if avg := testing.AllocsPerRun(200, func() {
		if err := d.AllocRef(&ref, 1, 1, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AllocRef(+1) on a live ref allocates %.1f objects per call, want 0", avg)
	}
	if ref != live || d.HeldOn(1, 1) != 301 || d.HeldBy(1) != 401 {
		t.Fatalf("ref moved or holdings wrong: HeldOn %d, HeldBy %d", d.HeldOn(1, 1), d.HeldBy(1))
	}
}

// PlaceSpread sorts a pool-owned scratch slice and recycles placement
// records, so in steady state it allocates nothing.
func TestPlaceSpreadSteadyStateAllocs(t *testing.T) {
	d := NewDistributedPool([]int{100, 80, 120, 100})
	if err := d.AllocAt(9, 2, 30); err != nil {
		t.Fatal(err)
	}
	spread := func() {
		if err := d.PlaceSpread(1, 150, nil); err != nil {
			t.Fatal(err)
		}
		if err := d.PlaceSpread(2, 3, []InstanceID{3, 1}); err != nil {
			t.Fatal(err)
		}
		d.ReleaseRequest(1)
		d.ReleaseRequest(2)
	}
	spread()
	if avg := testing.AllocsPerRun(200, spread); avg != 0 {
		t.Fatalf("steady PlaceSpread allocates %.1f objects per round, want 0", avg)
	}
	if d.TotalUsed() != 30 {
		t.Fatalf("used %d after the rounds, want 30", d.TotalUsed())
	}
}
