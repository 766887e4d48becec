package fleet

import (
	"testing"

	"loongserve/internal/kvcache"
	"loongserve/internal/obs"
	"loongserve/internal/simevent"
)

// The node pools exist so steady-state churn — resident sets turning over
// for hours of simulated time — allocates nothing. These are regression
// tests for that property: AllocsPerRun must report zero for the
// remove/reinsert cycles that dominate long runs.

func TestRadixCacheSteadyStateZeroAllocs(t *testing.T) {
	c := NewRadixCache(100_000, 100, false, nil)
	trunk := []uint64{11, 12, 13}
	tail := []uint64{11, 12, 13, 14, 15, 16}
	c.Put(tail)
	if avg := testing.AllocsPerRun(200, func() {
		c.RemoveExclusive(tail)
		c.Put(tail)
		c.Lookup(trunk)
	}); avg != 0 {
		t.Fatalf("radix remove/put/lookup cycle allocates %.1f per run, want 0", avg)
	}
}

// TestShardBufSteadyStateZeroAllocs covers the runner's per-window hot
// path: buffering several replicas' output and replaying it, merged in
// (time, replica, emission) order, must reuse the entry and merge storage.
func TestShardBufSteadyStateZeroAllocs(t *testing.T) {
	sink := &countingSink{}
	g, err := NewGateway(Config{Groups: toyFleet(3), Obs: sink}, simevent.New())
	if err != nil {
		t.Fatal(err)
	}
	// Replicas' entries interleave in time, so the merge must reorder them.
	fill := func() {
		for i := 0; i < 16; i++ {
			for _, rep := range g.replicas {
				rep.buf.Emit(obs.Event{At: simevent.Time(3*i + 2 - rep.index), Kind: obs.KindRoute})
			}
		}
	}
	fill()
	g.shard.replay() // warm the merge scratch
	if avg := testing.AllocsPerRun(200, func() {
		fill()
		g.shard.replay()
	}); avg != 0 {
		t.Fatalf("shard buffer fill/replay cycle allocates %.1f per run, want 0", avg)
	}
	*sink = countingSink{}
	fill()
	g.shard.replay()
	if sink.n != 16*3 || sink.unordered != 0 {
		t.Fatalf("replay emitted %d events (%d out of time order), want %d in order", sink.n, sink.unordered, 16*3)
	}
}

// countingSink counts events, and those stamped before their predecessor.
type countingSink struct {
	n, unordered int
	last         simevent.Time
}

func (c *countingSink) Emit(e obs.Event) {
	if e.At < c.last {
		c.unordered++
	}
	c.n++
	c.last = e.At
}

// TestThinkHeapSteadyStateZeroAllocs: the closed-loop lookahead's min-heap
// stays inside the storage the feed preallocates, and min skips completed
// requests.
func TestThinkHeapSteadyStateZeroAllocs(t *testing.T) {
	const n = 64
	h := thinkHeap{items: make([]thinkItem, 0, n), done: make([]bool, n+1)}
	bad := 0
	if avg := testing.AllocsPerRun(20, func() {
		h.items = h.items[:0]
		clear(h.done)
		for id := 1; id <= n; id++ {
			h.push(simevent.Duration(id*37%n), kvcache.RequestID(id)) // a permutation of 0..n-1
		}
		for want := 0; want < n; want++ {
			if got, ok := h.min(); !ok || got != simevent.Duration(want) {
				bad++
			}
			h.done[h.items[0].id] = true // the request holding the minimum completes
		}
		if _, ok := h.min(); ok {
			bad++
		}
	}); avg != 0 {
		t.Fatalf("think-heap push/complete cycle allocates %.1f per run, want 0", avg)
	}
	if bad != 0 {
		t.Fatalf("min returned a wrong value %d times", bad)
	}
}
