package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"loongserve/internal/obs"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// The fleet runner: conservative time-window synchronization.
//
// Every replica engine advances on a private simevent heap; the gateway
// owns its own heap for routing, lifecycle, fault, hedge, sampler and
// arrival events. The runner exploits the fleet's causality structure:
//
//   - Replicas share nothing: an engine event can only read or write its
//     own replica's cluster, pool, cost model and request state.
//   - Every gateway→engine interaction (Arrive, Load) happens inside a
//     gateway event — a route, a hedge launch, a stall release, a fault, a
//     sampler tick, an autoscaler tick — or inside completion replay.
//   - Every engine→gateway interaction is a completion or an obs event,
//     which the engine writes into its replica's buffer and the runner
//     replays.
//
// A window ends at W = min(next gateway event, E + lookahead), where E is
// the earliest pending engine event. Every replica runs its heap through
// all events strictly before W, in parallel, with no shared state. Then the
// buffered output — completions and obs events — replays into the gateway
// in the canonical merge order (time, replica index, per-replica emission
// order). If nothing replayed and W is the next gateway event, every live
// replica clock syncs to W and the gateway fires exactly one event there,
// so anything it injects into an engine lands at the engine's present.
//
// The lookahead bounds how soon a completion can make the gateway touch an
// engine. Open-loop feeds know every arrival before the window opens
// (arrivals are staged or chained off earlier arrivals, hedge timers arm at
// delivery, faults are pre-staged, migration/stall/cold-fetch timers arm at
// route time), so they need none and their windows end at the next gateway
// event. A closed-loop feed schedules a session's next turn a think time
// after its completion, so it reports the least think time among in-flight
// requests whose session has a next turn: no completion at or after E can
// schedule an arrival before E plus that. A zero lookahead degrades to one
// engine instant per window, which is still correct.
//
// Completion handling can also schedule gateway events that touch no
// engine — a drain handoff's delayed cache install — earlier than later
// buffered entries. Replay fires such events in time order, before the
// entries they precede. The arrival guard (Gateway.arrive) panics if any
// gateway event hands a request to an engine whose clock is ahead of the
// gateway's, so a window bug fails loudly instead of running an arrival in
// the engine's past.
//
// Replicas are partitioned round-robin over Config.Shards worker
// goroutines; 0 and 1 run inline. A retired or crashed replica whose heap
// and buffer are empty can never hold work again, so it drops out of the
// scan, the partition and the replay merge.
//
// Determinism: the parallel phase touches no shared state and the merge
// order is independent of how replicas are partitioned over workers, so
// every shard count produces byte-identical output.

// timeInf is the advance bound once the gateway has no pending events.
const timeInf = simevent.Time(math.MaxInt64)

// shardEntry is one unit of buffered engine output: an obs event, or a
// request completion (req != nil) to replay through Gateway.complete.
type shardEntry struct {
	at  simevent.Time
	ev  obs.Event
	req *serving.Request
}

// shardBuf collects one replica's engine output during the parallel phase.
// It implements obs.Sink (as the inner sink of the replica's gatedSink, so
// crash gating keeps working unchanged) and receives completions via the
// replica's Env.Complete. Only the replica's worker touches it between
// barriers; only the coordinator touches it at the barrier.
type shardBuf struct {
	entries []shardEntry
}

// Emit implements obs.Sink.
func (b *shardBuf) Emit(e obs.Event) {
	b.entries = append(b.entries, shardEntry{at: e.At, ev: e})
}

func (b *shardBuf) complete(at simevent.Time, r *serving.Request) {
	b.entries = append(b.entries, shardEntry{at: at, req: r})
}

func (b *shardBuf) reset() {
	for i := range b.entries {
		b.entries[i] = shardEntry{}
	}
	b.entries = b.entries[:0]
}

// mergeRef addresses one buffered entry during the barrier merge.
type mergeRef struct {
	at       simevent.Time
	rep, idx int32 // replica index, entry index
}

func compareMergeRefs(a, b mergeRef) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rep, b.rep); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// shardRunner drives a fleet run.
type shardRunner struct {
	g       *Gateway
	workers int

	// live lists the replicas that can still hold work, in index order.
	live   []*replica
	merged []mergeRef // barrier merge scratch

	// lookahead, when set, reports the least delay between a completion
	// and an engine-touching gateway event it schedules (a closed-loop
	// feed's think time); ok=false means no completion schedules one.
	lookahead func() (d simevent.Duration, ok bool)

	// Worker pool, grown on demand: worker w handles live[w], live[w+n],
	// ... for the n workers taking part in an advance. bound and n are
	// written by the coordinator before the start signals and read by
	// workers after them (channel happens-before).
	bound  simevent.Time
	n      int
	start  []chan struct{}
	wg     sync.WaitGroup // one advance's workers
	exited sync.WaitGroup // the pool's goroutines, for stop
	panics []any
}

// run executes the whole simulation.
func (s *shardRunner) run() {
	defer s.stop()
	g := s.g
	for {
		gw, hasGW := g.sim.Head()
		bound := timeInf
		if hasGW {
			bound = gw
		}
		e, busy := s.engineHead()
		if busy && s.lookahead != nil {
			if d, ok := s.lookahead(); ok {
				bound = min(bound, e.Add(max(d, 1)))
			}
		}
		if busy && e < bound {
			s.advance(bound)
		}
		if s.replay() {
			continue // completions may have scheduled gateway events
		}
		if !hasGW {
			if bound == timeInf {
				return // every heap drained and nothing surfaced
			}
			continue
		}
		if bound < gw {
			continue // a lookahead window: the gateway event is still ahead
		}
		// Barrier: sync every live replica clock to the gateway event, then
		// fire exactly that one event.
		s.sync(gw)
		if g.sim.MaxEvents > 0 && g.sim.Fired() >= g.sim.MaxEvents {
			panic(fmt.Sprintf("simevent: exceeded MaxEvents=%d at t=%v", g.sim.MaxEvents, gw))
		}
		g.sim.Step()
	}
}

// engineHead returns the earliest pending event over the live replicas.
func (s *shardRunner) engineHead() (simevent.Time, bool) {
	head, busy := timeInf, false
	for _, rep := range s.live {
		if h, ok := rep.env.Sim.Head(); ok && h < head {
			head, busy = h, true
		}
	}
	return head, busy
}

// advance runs every live replica's heap through all events strictly
// before bound — the parallel phase.
func (s *shardRunner) advance(bound simevent.Time) {
	n := min(s.workers, len(s.live))
	if n <= 1 {
		for _, rep := range s.live {
			rep.env.Sim.RunBefore(bound)
		}
		return
	}
	for len(s.start) < n {
		ch := make(chan struct{}, 1)
		s.start = append(s.start, ch)
		s.panics = append(s.panics, nil)
		s.exited.Add(1)
		go s.worker(len(s.start)-1, ch)
	}
	s.bound, s.n = bound, n
	s.wg.Add(n)
	for _, ch := range s.start[:n] {
		ch <- struct{}{}
	}
	s.wg.Wait()
	for w, p := range s.panics {
		if p != nil {
			s.panics[w] = nil
			panic(p)
		}
	}
}

// worker advances its share of the live replicas each time the coordinator
// signals.
func (s *shardRunner) worker(w int, start <-chan struct{}) {
	defer s.exited.Done()
	for range start {
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.panics[w] = p
				}
				s.wg.Done()
			}()
			for i := w; i < len(s.live); i += s.n {
				s.live[i].env.Sim.RunBefore(s.bound)
			}
		}()
	}
}

// stop shuts the worker pool down and waits for its goroutines to exit.
func (s *shardRunner) stop() {
	for _, ch := range s.start {
		close(ch)
	}
	s.exited.Wait()
	s.start, s.panics = nil, nil
}

// sync moves every live replica's clock to the barrier instant t, and drops
// retired or crashed replicas whose heap is empty (buffers are empty at a
// barrier): nothing can reach them again.
func (s *shardRunner) sync(t simevent.Time) {
	live := s.live[:0]
	for _, rep := range s.live {
		if (rep.state == ReplicaRetired || rep.state == ReplicaFailed) && rep.env.Sim.Pending() == 0 {
			continue
		}
		rep.env.Sim.AdvanceTo(t)
		live = append(live, rep)
	}
	clear(s.live[len(live):])
	s.live = live
}

// replay drains every live replica's buffer into the gateway in the
// canonical (time, replica index, emission order) merge order: obs events
// re-emit to the run's sink, completions process through Gateway.complete
// with the gateway clock advanced to the completion instant. A gateway
// event that completion handling scheduled before the next entry fires
// first. Reports whether anything replayed (completion processing can
// schedule new gateway events, so the caller must recompute its window).
func (s *shardRunner) replay() bool {
	merged := s.merged[:0]
	for _, rep := range s.live {
		for ei := range rep.buf.entries {
			merged = append(merged, mergeRef{at: rep.buf.entries[ei].at, rep: int32(rep.index), idx: int32(ei)})
		}
	}
	s.merged = merged
	if len(merged) == 0 {
		return false
	}
	slices.SortFunc(merged, compareMergeRefs)
	g := s.g
	for _, m := range merged {
		for h, ok := g.sim.Head(); ok && h < m.at; h, ok = g.sim.Head() {
			g.sim.Step()
		}
		rep := g.replicas[m.rep]
		en := &rep.buf.entries[m.idx]
		if en.req != nil {
			g.sim.AdvanceTo(en.at)
			g.complete(rep, en.req)
		} else {
			g.obsSink.Emit(en.ev)
		}
	}
	for _, rep := range s.live {
		rep.buf.reset()
	}
	return true
}

// Run executes the simulation to completion: the events scheduled on the
// gateway's simulator and every replica engine's private heap, on the
// windowed runner above. An engine's *serving.ErrOOM panic returns as the
// error; any other panic propagates. Call Finalize afterwards.
func (g *Gateway) Run() (err error) {
	defer func() {
		if p := recover(); p != nil {
			oom, ok := p.(*serving.ErrOOM)
			if !ok {
				panic(p)
			}
			err = oom
		}
	}()
	g.shard.run()
	return nil
}

// pendingWork counts pending events across the gateway heap and every live
// replica heap: the sampler's "is the run still alive" signal.
func (g *Gateway) pendingWork() int {
	n := g.sim.Pending()
	for _, rep := range g.shard.live {
		n += rep.env.Sim.Pending()
	}
	return n
}
