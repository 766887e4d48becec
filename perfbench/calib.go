package main

import (
	"container/heap"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Host-speed calibration.
//
// On a shared virtual machine the processors' speed drifts by half over
// minutes: neighbours contend for the shared cores, cache and memory, and
// the hypervisor reports little of it as steal. Runs minutes apart then
// differ by more than any regression bound, whatever the program does.
// measure therefore interleaves passes of a fixed kernel with the
// repetitions and converts host seconds into reference seconds: host
// seconds times the host's speed, which is calibRefSeconds over the run's
// median pass. On a host running at half the reference speed, two host
// seconds are one reference second. Requests per reference second hold
// still while the machine speeds up and slows down, and move when the
// program does.
//
// The kernel is this file alone: it uses nothing from the repository, so no
// change to the program moves it. It does the kind of work the simulator
// does (an event heap behind an interface, a map, small allocations
// chained by pointers, a sort, floating point), because the drift slows
// such code more than it slows a pure memory walk: over twelve runs a
// random walk over a 16 MiB arena tracked the program's speed with
// residuals three times as large. The collector is off during a pass, so a
// pass costs the same whatever the program's live heap, and the pass's
// garbage is collected, untimed, before the next step.
const (
	calibEvents = 48_000 // events pushed per pass
	calibQueue  = 512    // events kept queued
	calibKeys   = 4096   // map key space
	calibSorted = 16_000 // records sorted per pass
	// calibRefSeconds sets the scale of a reference second: about one pass
	// on the 2-processor x86-64 Xeon virtual machine (go1.24.0) the
	// benchmark was built on.
	calibRefSeconds = 0.025
	// calibShare is the share of the measured window spent on passes.
	calibShare = 0.10
)

type calibrator struct {
	passes []float64 // seconds per pass
	spent  float64   // seconds spent in passes
	sink   float64
}

type calibEvent struct {
	at float64
	id int32
}

type calibHeap []*calibEvent

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(*calibEvent)) }
func (h *calibHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type calibNode struct {
	next *calibNode
	key  uint64
	val  [4]float64
}

// run is one pass: the same work every time.
func (c *calibrator) run() {
	x := uint64(88172645463325252)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	h := make(calibHeap, 0, calibQueue+1)
	m := make(map[uint64]int32, calibKeys/2)
	var list *calibNode
	acc := 0.0
	for i := 0; i < calibEvents; i++ {
		heap.Push(&h, &calibEvent{at: float64(rnd()%1_000_000) / 7, id: int32(i)})
		if h.Len() <= calibQueue {
			continue
		}
		e := heap.Pop(&h).(*calibEvent)
		acc += e.at * 1e-6
		k := rnd() % calibKeys
		if v, ok := m[k]; ok {
			acc += float64(v)
			delete(m, k)
		} else {
			m[k] = e.id
		}
		list = &calibNode{next: list, key: k, val: [4]float64{e.at, acc, math.Sqrt(e.at), float64(k)}}
		if i%64 == 0 {
			for n := list; n != nil; n = n.next {
				acc += n.val[2] * 1e-9
			}
			list = nil
		}
	}
	recs := make([]calibEvent, calibSorted)
	for i := range recs {
		recs[i] = calibEvent{at: math.Log1p(float64(rnd() % 100_000)), id: int32(i)}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	c.sink += acc + recs[len(recs)/2].at
}

// pass times one pass with the collector off, then collects its garbage.
func (c *calibrator) pass() {
	gc := debug.SetGCPercent(-1)
	t0 := time.Now()
	c.run()
	s := since(t0)
	debug.SetGCPercent(gc)
	runtime.GC()
	c.passes = append(c.passes, s)
	c.spent += s
}

// catchUp runs passes until they have taken calibShare of the window:
// spent of spent+measured seconds, where measured is the time the
// repetitions have taken so far. It runs at least one pass.
func (c *calibrator) catchUp(measured float64) {
	for {
		c.pass()
		if c.spent >= calibShare/(1-calibShare)*measured {
			return
		}
	}
}

// speed is the host's speed relative to the reference host over this run:
// calibRefSeconds over the median pass.
func (c *calibrator) speed() float64 {
	return calibRefSeconds / median(c.passes)
}

// refSeconds converts host seconds measured in this run into reference
// seconds.
func (c *calibrator) refSeconds(host float64) float64 { return host * c.speed() }
