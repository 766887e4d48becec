package main

import (
	"fmt"
	"math"

	"loongserve/internal/fleet"
	"loongserve/internal/obs"
	"loongserve/internal/workload"
)

// fnv is an order-sensitive FNV-1a fold over 64-bit words. Input
// fingerprints and output digests are both fnv folds, so two runs agree
// exactly when they saw or produced the same values in the same order.
type fnv uint64

const (
	fnvOffset fnv = 14695981039346656037
	fnvPrime  fnv = 1099511628211
)

func (h *fnv) u64(v uint64) { *h = (*h ^ fnv(v)) * fnvPrime }
func (h *fnv) i64(v int64)  { h.u64(uint64(v)) }
func (h *fnv) f64(v float64) {
	h.u64(math.Float64bits(v))
}
func (h *fnv) str(s string) {
	for i := 0; i < len(s); i++ {
		h.u64(uint64(s[i]))
	}
	h.u64(0xff) // terminator, so "ab"+"c" differs from "a"+"bc"
}

// entry folds one workload entry, block-hash chain included.
func (h *fnv) entry(e workload.Entry) {
	for _, v := range []int64{int64(e.InputLen), int64(e.OutputLen), e.SessionID, int64(e.Turn),
		int64(e.PromptGroup), int64(e.SharedLen), int64(e.PrefixLen), int64(len(e.Blocks))} {
		h.i64(v)
	}
	for _, b := range e.Blocks {
		h.u64(b)
	}
}

// script folds one session script: its plan and every turn's entry.
func (h *fnv) script(s *workload.SessionScript) {
	h.i64(s.ID)
	h.i64(s.ParentID)
	h.f64(s.Start)
	for _, t := range s.Turns {
		h.f64(t.Think)
	}
	for t := range s.Turns {
		h.entry(s.Entry(t))
	}
}

// event folds every field of one observability event.
func (h *fnv) event(e obs.Event) {
	h.i64(int64(e.At))
	h.u64(uint64(e.Kind))
	h.i64(int64(e.Replica))
	h.i64(int64(e.Group))
	h.i64(e.Session)
	h.i64(e.Request)
	h.i64(int64(e.Tokens))
	h.i64(e.A)
	h.i64(e.B)
	h.str(e.Label)
}

// fleetResult folds everything a fleet run reports except its simulator
// event count, which decode fusion legitimately changes.
func (h *fnv) fleetResult(r *fleet.Result) {
	h.str(fmt.Sprintf("%v|%+v|%+v|%+v|%+v|%+v|%v|%v|%v",
		r.End, r.Replicas, r.Migrations, r.Cold, r.Faults, r.Hedge,
		r.ReplicaSeconds, r.CostUnitSeconds, len(r.Events)))
}

// fleetSink is the benchmark's own view of a fleet's event stream: it
// digests every event, counts events, and turns KindEnqueue/KindFinish
// pairs into request timings. A request must be enqueued before it
// finishes and finish exactly once.
type fleetSink struct {
	digest   fnv
	events   uint64
	budget   map[int64]int64 // request -> SLO budget ns, while in flight
	finished map[int64]bool
	lat      latencies
	first    int64 // earliest arrival seen (ns)
	last     int64 // latest arrival seen (ns)
	err      error
}

func newFleetSink() *fleetSink {
	return &fleetSink{
		digest:   fnvOffset,
		budget:   make(map[int64]int64),
		finished: make(map[int64]bool),
		first:    math.MaxInt64,
		last:     math.MinInt64,
	}
}

// Emit implements obs.Sink.
func (s *fleetSink) Emit(e obs.Event) {
	s.events++
	s.digest.event(e)
	switch e.Kind {
	case obs.KindEnqueue:
		// A request re-enqueues after a drained migration destination or a
		// crash; its budget does not change, so the first one stands.
		if _, ok := s.budget[e.Request]; !ok && !s.finished[e.Request] {
			s.budget[e.Request] = e.B
			s.lat.n++
		}
	case obs.KindFinish:
		budget, ok := s.budget[e.Request]
		if !ok {
			if s.err == nil {
				s.err = fmt.Errorf("request %d finished without being enqueued, or finished twice", e.Request)
			}
			return
		}
		delete(s.budget, e.Request)
		s.finished[e.Request] = true
		at, first, arrival := int64(e.At), e.A, e.B
		s.lat.ttft = append(s.lat.ttft, float64(first-arrival)/1e6)
		if out := e.Tokens; out > 1 {
			s.lat.tpot = append(s.lat.tpot, float64(at-first)/1e6/float64(out-1))
		}
		if budget > 0 && at-arrival <= budget {
			s.lat.met++
		}
		s.first = min(s.first, arrival)
		s.last = max(s.last, arrival)
	}
}

// check reports stream-level request conservation: every enqueued request
// finished exactly once, and the count matches what the workload submitted.
func (s *fleetSink) check(submitted int) error {
	if s.err != nil {
		return s.err
	}
	if len(s.budget) != 0 {
		return fmt.Errorf("%d requests enqueued but never finished", len(s.budget))
	}
	if len(s.finished) != submitted {
		return fmt.Errorf("%d requests finished, workload submitted %d", len(s.finished), submitted)
	}
	s.lat.window = float64(s.last-s.first) / 1e9
	return nil
}

// tee fans one stream out to several sinks in order.
type tee []obs.Sink

func (t tee) Emit(e obs.Event) {
	for _, s := range t {
		s.Emit(e)
	}
}
