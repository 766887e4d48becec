// Package simevent provides a deterministic discrete-event simulation
// kernel. Time is measured in integer nanoseconds; events scheduled for the
// same instant fire in the order they were scheduled, which makes every
// simulation bit-reproducible for a fixed input.
//
// The kernel is intentionally minimal: a clock, a priority queue of events,
// and a run loop. Higher layers (cluster, serving engines) own all state and
// register callbacks.
//
// The kernel is built for hot loops. The queue is a hand-rolled 4-ary heap
// (no container/heap interface dispatch), fired events return to a free
// list, and callers that schedule in a tight cycle can hold a caller-owned
// reusable event (NewEvent + ScheduleAfter) so a steady-state simulation
// runs without allocating. The queue invariant is simple: every queued
// event is live. Cancel removes from the heap immediately — there are no
// tombstones, and Step never skips dead entries.
package simevent

import (
	"fmt"
	"sort"
	"time"
)

// Time is a simulated timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a simulated time span in nanoseconds.
type Duration = time.Duration

// Common duration constructors, re-exported for call-site brevity.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Seconds converts a simulated timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the timestamp advanced by d, saturating on overflow.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if d > 0 && s < t {
		return Time(1<<63 - 1)
	}
	return s
}

func (t Time) String() string {
	return time.Duration(t).String()
}

// FromSeconds converts floating-point seconds into a Duration.
func FromSeconds(s float64) Duration {
	return time.Duration(s * 1e9)
}

// Event is a scheduled callback.
//
// Handles returned by At/After belong to the kernel: they may be used with
// Cancel while the event is pending, but once the event fires the kernel
// recycles the object through its free list, so a fired handle must be
// dropped (cancelling it is a no-op only until the object is reused).
// Cancelled events are never recycled, so a cancelled handle stays valid
// indefinitely. Caller-owned events from NewEvent are never recycled.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	index  int // heap position, -1 when not queued
	cancel bool
	owned  bool // caller-owned reusable event: never enters the free list
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancel }

// At returns the time the event is (was) scheduled for.
func (e *Event) At() Time { return e.at }

// stagedEvent is one entry of the bulk-loaded timeline: an arrival-style
// event that never needs cancellation and therefore never touches the heap.
type stagedEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// Sim is a discrete-event simulator instance. It is not safe for concurrent
// use; all event callbacks run on the goroutine that calls Run.
type Sim struct {
	now     Time
	seq     uint64
	queue   []*Event // 4-ary min-heap on (at, seq)
	free    []*Event // recycled events
	fired   uint64
	stopped bool

	// The staged timeline: drivers preload whole workload traces here
	// (Stage), keeping thousands of future arrivals out of the heap so
	// dynamic-event push/pop costs O(log active) instead of O(log trace).
	// Entries fire in exactly the order they would have from the heap:
	// seqs come from the same counter and the merge in Step compares the
	// same (at, seq) key.
	stage      []stagedEvent
	stageIdx   int
	stageDirty bool

	// MaxEvents bounds the run loop as a safety net against runaway
	// simulations; zero means no bound. New sets it to defaultMaxEvents.
	MaxEvents uint64
}

// defaultMaxEvents is every new simulator's MaxEvents, the divergence
// backstop of every simulated run.
const defaultMaxEvents = 200_000_000

// New returns an empty simulator positioned at time zero, bounded by
// defaultMaxEvents.
func New() *Sim {
	return &Sim{MaxEvents: defaultMaxEvents}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events queued (heap and staged timeline).
// Cancelled events leave the queue immediately, so every pending event will
// fire.
func (s *Sim) Pending() int { return len(s.queue) + len(s.stage) - s.stageIdx }

// less orders the heap: earliest time first, scheduling order breaking
// ties. (at, seq) pairs are unique, so the order is total and the firing
// sequence is independent of heap layout.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property from position i toward the root.
func (s *Sim) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = e
	e.index = i
}

// siftDown restores the heap property from position i toward the leaves.
func (s *Sim) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(q[c], q[min]) {
				min = c
			}
		}
		if !less(q[min], e) {
			break
		}
		q[i] = q[min]
		q[i].index = i
		i = min
	}
	q[i] = e
	e.index = i
}

// push enqueues a fully initialized event.
func (s *Sim) push(e *Event) {
	e.index = len(s.queue)
	s.queue = append(s.queue, e)
	s.siftUp(e.index)
}

// pop removes and returns the earliest event.
func (s *Sim) pop() *Event {
	q := s.queue
	e := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[0].index = 0
	q[last] = nil
	s.queue = q[:last]
	if last > 1 {
		s.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap position i.
func (s *Sim) remove(i int) {
	q := s.queue
	last := len(q) - 1
	e := q[i]
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	s.queue = q[:last]
	if i < last {
		s.siftDown(i)
		s.siftUp(i)
	}
	e.index = -1
}

// alloc takes an event from the free list, or makes one.
func (s *Sim) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{index: -1}
}

// recycle returns a fired kernel-owned event to the free list.
func (s *Sim) recycle(e *Event) {
	e.fn = nil
	e.cancel = false
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// now) panics: it indicates a logic error in the caller, and silently
// clamping would mask causality bugs.
func (s *Sim) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simevent: schedule at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("simevent: nil event function")
	}
	e := s.alloc()
	e.at = t
	e.seq = s.seq
	e.fn = fn
	e.cancel = false
	e.owned = false
	s.seq++
	s.push(e)
	return e
}

// After schedules fn to run d after the current time. Negative d panics.
func (s *Sim) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simevent: negative delay %v", d))
	}
	return s.At(s.now.Add(d), fn)
}

// Stage schedules fn to run at absolute time t on the staged timeline:
// semantically identical to At — same seq counter, same (at, seq) firing
// order against every other event — but without a heap entry or a Cancel
// handle. Drivers use it to preload whole traces: a million arrivals cost
// one sorted array instead of a million-deep heap.
func (s *Sim) Stage(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("simevent: schedule at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("simevent: nil event function")
	}
	if n := len(s.stage); n > s.stageIdx && t < s.stage[n-1].at {
		s.stageDirty = true // out-of-order staging: sort before consuming
	}
	s.stage = append(s.stage, stagedEvent{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// stageHead returns the next staged entry, sorting the unconsumed suffix
// first if staging happened out of time order. (at, seq) keys are unique,
// so the sorted order is the exact global firing order.
func (s *Sim) stageHead() *stagedEvent {
	if s.stageIdx >= len(s.stage) {
		return nil
	}
	if s.stageDirty {
		rest := s.stage[s.stageIdx:]
		sort.Slice(rest, func(i, j int) bool {
			if rest[i].at != rest[j].at {
				return rest[i].at < rest[j].at
			}
			return rest[i].seq < rest[j].seq
		})
		s.stageDirty = false
	}
	return &s.stage[s.stageIdx]
}

// NewEvent returns an unscheduled caller-owned event bound to fn. Owned
// events are armed with ScheduleAt/ScheduleAfter, may be re-armed after
// every firing (typically from fn itself), and never enter the kernel's
// free list — a scheduler that drives its iteration loop through one owned
// event per batch runs allocation-free in steady state.
func (s *Sim) NewEvent(fn func()) *Event {
	if fn == nil {
		panic("simevent: nil event function")
	}
	return &Event{fn: fn, index: -1, owned: true}
}

// ScheduleAt arms an event (from NewEvent) to fire at absolute time t. The
// event must not already be queued; re-arming happens after it fires or is
// cancelled.
func (s *Sim) ScheduleAt(e *Event, t Time) {
	if e == nil || e.fn == nil {
		panic("simevent: ScheduleAt on nil or unbound event")
	}
	if e.index >= 0 {
		panic(fmt.Sprintf("simevent: event already scheduled for %v", e.at))
	}
	if t < s.now {
		panic(fmt.Sprintf("simevent: schedule at %v before now %v", t, s.now))
	}
	e.at = t
	e.seq = s.seq
	e.cancel = false
	s.seq++
	s.push(e)
}

// ScheduleAfter arms an event to fire d after the current time.
func (s *Sim) ScheduleAfter(e *Event, d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simevent: negative delay %v", d))
	}
	s.ScheduleAt(e, s.now.Add(d))
}

// Cancel prevents a pending event from firing, removing it from the queue
// immediately. Cancelling nil, an already-cancelled event, or an event
// that already fired is a no-op — but see Event: a kernel-owned handle
// (from At/After) is only trustworthy for Cancel until its event fires.
func (s *Sim) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.cancel || e.index < 0 {
		e.cancel = true
		return
	}
	e.cancel = true
	s.remove(e.index)
}

// Stop makes Run return after the currently executing event completes.
func (s *Sim) Stop() { s.stopped = true }

// Step executes the single earliest pending event — merging the heap and
// the staged timeline on their shared (at, seq) key. It returns false when
// both are empty.
func (s *Sim) Step() bool {
	st := s.stageHead()
	if st != nil && (len(s.queue) == 0 || st.at < s.queue[0].at ||
		(st.at == s.queue[0].at && st.seq < s.queue[0].seq)) {
		s.stageIdx++
		s.now = st.at
		s.fired++
		fn := st.fn
		st.fn = nil // release the closure as soon as it has fired
		if s.stageIdx == len(s.stage) {
			s.stage = s.stage[:0]
			s.stageIdx = 0
		}
		fn()
		return true
	}
	if len(s.queue) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.at
	s.fired++
	fn := e.fn
	if !e.owned {
		// Recycle before firing: a callback chain that schedules its
		// successor reuses this very object, so the whole chain costs one
		// allocation total.
		s.recycle(e)
	}
	fn()
	return true
}

// Run executes events until the queue empties, Stop is called, or MaxEvents
// is exceeded (in which case it panics, because exceeding the budget means
// the simulation diverged).
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped {
		if s.MaxEvents > 0 && s.fired >= s.MaxEvents {
			panic(fmt.Sprintf("simevent: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now))
		}
		if !s.Step() {
			return
		}
	}
}

// Head reports the timestamp of the earliest pending event across the heap
// and the staged timeline; ok=false when nothing is pending. The sharded
// fleet runner uses gateway Head as the conservative window bound its
// replica shards may advance toward.
func (s *Sim) Head() (Time, bool) {
	st := s.stageHead()
	if len(s.queue) == 0 {
		if st == nil {
			return 0, false
		}
		return st.at, true
	}
	if st != nil && st.at < s.queue[0].at {
		return st.at, true
	}
	return s.queue[0].at, true
}

// RunBefore executes events with timestamps strictly less than bound,
// leaving later events queued. Unlike RunUntil it does not move the clock
// to the bound: a shard that drained its window calls AdvanceTo once the
// coordinator knows no earlier work remains anywhere in the fleet.
func (s *Sim) RunBefore(bound Time) {
	for {
		if s.MaxEvents > 0 && s.fired >= s.MaxEvents {
			panic(fmt.Sprintf("simevent: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now))
		}
		t, ok := s.Head()
		if !ok || t >= bound {
			return
		}
		s.Step()
	}
}

// AdvanceTo moves the clock forward to t without firing anything — the
// barrier primitive of conservative time-window synchronization: after a
// window closes, every shard adopts the bound as its local now so work
// the coordinator injects at the bound lands in its present, not its past.
// Skipping over a pending event panics (it would reorder causality);
// t <= now is a no-op.
func (s *Sim) AdvanceTo(t Time) {
	if t <= s.now {
		return
	}
	if h, ok := s.Head(); ok && h < t {
		panic(fmt.Sprintf("simevent: AdvanceTo(%v) would skip an event at %v", t, h))
	}
	s.now = t
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued and advancing the clock to deadline.
func (s *Sim) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		hasNext := false
		var next Time
		if st := s.stageHead(); st != nil {
			next, hasNext = st.at, true
		}
		if len(s.queue) > 0 && (!hasNext || s.queue[0].at < next) {
			next, hasNext = s.queue[0].at, true
		}
		if !hasNext || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
