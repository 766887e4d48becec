package fleet

import (
	"fmt"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// SessionFeed drives a session-script workload through a gateway, emitting
// each conversation's turns as simulator events. In open-loop mode turn
// t+1 fires Think seconds after turn t's arrival (the static-trace
// semantics); in closed-loop mode it fires Think seconds after turn t
// *completes*, so an overloaded fleet sees its own backpressure — the next
// turn cannot arrive while the previous one is still queued, which is what
// makes saturation measurements honest.
type SessionFeed struct {
	g       *Gateway
	scripts []workload.SessionScript
	byID    map[int64]*workload.SessionScript
	closed  bool

	total     int
	emitted   int
	completed int

	// Closed loop only: the think times that follow in-flight requests,
	// whose minimum is the runner's window lookahead.
	thinks thinkHeap

	// Trace records every emitted request in submission order; index i
	// corresponds to request ID i+1, so records can be joined back to
	// (session, turn) identities.
	Trace []workload.TimedRequest
}

// FeedSessions schedules a session workload onto a gateway and takes over
// its OnComplete hook. Call before running the simulator.
func FeedSessions(g *Gateway, scripts []workload.SessionScript, closed bool) *SessionFeed {
	f := &SessionFeed{
		g:       g,
		scripts: scripts,
		byID:    make(map[int64]*workload.SessionScript, len(scripts)),
		closed:  closed,
		total:   workload.NumRequests(scripts),
	}
	for i := range scripts {
		s := &scripts[i]
		f.byID[s.ID] = s
		if len(s.Turns) == 0 {
			continue
		}
		start := simevent.Time(simevent.FromSeconds(s.Start))
		g.sim.Stage(start, func() { f.emit(s, 0) })
	}
	g.OnComplete = f.onComplete
	if closed {
		// Request IDs are dense (1..total), so completion marks index by ID
		// and the heap never outgrows one entry per request.
		f.thinks = thinkHeap{items: make([]thinkItem, 0, f.total), done: make([]bool, f.total+1)}
		g.shard.lookahead = f.thinks.min
	}
	return f
}

// Total returns the number of requests the feed will emit.
func (f *SessionFeed) Total() int { return f.total }

// Completed returns the number of finished requests.
func (f *SessionFeed) Completed() int { return f.completed }

// emit submits turn t of script s at the current simulated time and, in
// open-loop mode, chains the next turn's arrival off this one.
func (f *SessionFeed) emit(s *workload.SessionScript, t int) {
	e := s.Entry(t)
	f.emitted++
	id := kvcache.RequestID(f.emitted)
	now := f.g.sim.Now()
	if !f.g.cfg.StreamMetrics {
		// Streaming runs drop the trace too: retaining one TimedRequest
		// (with its block-hash chain) per emitted request would rebuild
		// the O(requests) footprint the flag exists to remove, and with
		// Records gone there is nothing to join the trace back to.
		f.Trace = append(f.Trace, workload.TimedRequest{Entry: e, Arrival: time.Duration(now)})
	}
	r := &serving.Request{
		ID:        id,
		InputLen:  e.InputLen,
		OutputLen: e.OutputLen,
		Arrival:   now,
		SLOBudget: f.g.SLOBudget(e.InputLen, e.OutputLen),
	}
	f.g.Submit(r, e)
	if t+1 < len(s.Turns) {
		think := simevent.FromSeconds(s.Turns[t].Think)
		if f.closed {
			f.thinks.push(think, id)
		} else {
			f.g.sim.After(think, func() { f.emit(s, t+1) })
		}
	}
}

// onComplete is the gateway completion hook: in closed-loop mode the
// session's next turn triggers its think time from here.
func (f *SessionFeed) onComplete(e workload.Entry, rec metrics.Record) {
	f.completed++
	if !f.closed {
		return
	}
	f.thinks.done[rec.ID] = true
	if e.SessionID == 0 {
		return
	}
	s, ok := f.byID[e.SessionID]
	if !ok {
		return
	}
	if t := e.Turn; t+1 < len(s.Turns) {
		f.g.sim.After(simevent.FromSeconds(s.Turns[t].Think), func() { f.emit(s, t+1) })
	}
}

// thinkHeap is a min-heap of the think times that follow in-flight
// closed-loop requests. Completed requests leave lazily, when they reach
// the top; preallocated by the feed, it never allocates.
type thinkHeap struct {
	items []thinkItem
	done  []bool // by request ID
}

type thinkItem struct {
	think simevent.Duration
	id    kvcache.RequestID
}

func (h *thinkHeap) push(think simevent.Duration, id kvcache.RequestID) {
	h.items = append(h.items, thinkItem{think, id})
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if h.items[p].think <= h.items[i].think {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

// min returns the least think time among in-flight requests whose session
// has a next turn: no completion can schedule an arrival sooner after
// itself than that.
func (h *thinkHeap) min() (simevent.Duration, bool) {
	for len(h.items) > 0 && h.done[h.items[0].id] {
		n := len(h.items) - 1
		h.items[0] = h.items[n]
		h.items = h.items[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h.items[c+1].think < h.items[c].think {
				c++
			}
			if h.items[i].think <= h.items[c].think {
				break
			}
			h.items[i], h.items[c] = h.items[c], h.items[i]
			i = c
		}
	}
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].think, true
}

// StreamFeed drives a lazily sampled session workload (workload.StreamSessions)
// through a gateway, open-loop. It pulls one branching family from the
// stream at a time and schedules the next session's start when the current
// one starts — sound because the sampler's Start times are non-decreasing —
// so memory holds only the live sessions plus one family, never the whole
// workload. With Config.StreamMetrics set, a day-long million-session run
// is O(live sessions) resident.
type StreamFeed struct {
	g      *Gateway
	stream *workload.SessionStream
	family []workload.SessionScript
	idx    int

	total     int // turns of every session pulled so far
	emitted   int
	completed int

	// Trace mirrors SessionFeed.Trace (dropped under StreamMetrics).
	Trace []workload.TimedRequest
}

// FeedSessionStream schedules a lazy session workload onto a gateway and
// takes over its OnComplete hook. Call before running the simulator.
func FeedSessionStream(g *Gateway, stream *workload.SessionStream) *StreamFeed {
	f := &StreamFeed{g: g, stream: stream}
	g.OnComplete = func(workload.Entry, metrics.Record) { f.completed++ }
	f.scheduleNext()
	return f
}

// Total returns the number of requests of every session pulled so far; once
// the simulation drains it equals the whole workload's request count.
func (f *StreamFeed) Total() int { return f.total }

// Completed returns the number of finished requests.
func (f *StreamFeed) Completed() int { return f.completed }

// scheduleNext arms the start of the next unstarted session, pulling the
// next family from the stream when the current one is exhausted.
func (f *StreamFeed) scheduleNext() {
	if f.idx == len(f.family) {
		f.family = f.stream.Next()
		f.idx = 0
		if len(f.family) == 0 {
			return // stream exhausted
		}
		for i := range f.family {
			f.total += len(f.family[i].Turns)
		}
	}
	s := &f.family[f.idx]
	f.idx++
	f.g.sim.At(simevent.Time(simevent.FromSeconds(s.Start)), func() {
		if len(s.Turns) > 0 {
			f.emit(s, 0)
		}
		f.scheduleNext()
	})
}

// emit submits turn t of script s now and chains the next turn open-loop.
func (f *StreamFeed) emit(s *workload.SessionScript, t int) {
	e := s.Entry(t)
	f.emitted++
	id := kvcache.RequestID(f.emitted)
	now := f.g.sim.Now()
	if !f.g.cfg.StreamMetrics {
		f.Trace = append(f.Trace, workload.TimedRequest{Entry: e, Arrival: time.Duration(now)})
	}
	r := &serving.Request{
		ID:        id,
		InputLen:  e.InputLen,
		OutputLen: e.OutputLen,
		Arrival:   now,
		SLOBudget: f.g.SLOBudget(e.InputLen, e.OutputLen),
	}
	f.g.Submit(r, e)
	if t+1 < len(s.Turns) {
		f.g.sim.After(simevent.FromSeconds(s.Turns[t].Think), func() { f.emit(s, t+1) })
	}
}

// RunSessionStream replays a lazily sampled open-loop session workload
// against a fleet built from cfg.Groups — the streaming counterpart of
// RunSessionsGroups(…, closed=false), and the entry point sized for
// day-long million-session traces (pair with Config.StreamMetrics and, for
// multi-core execution, Config.Shards).
func RunSessionStream(stream *workload.SessionStream, cfg Config) (*Result, error) {
	g, err := NewGatewayGroups(cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	feed := FeedSessionStream(g, stream)
	if err := g.Run(); err != nil {
		return nil, err
	}
	if feed.Completed() != feed.Total() {
		return nil, fmt.Errorf("fleet: %d of %d streamed session requests completed (policy %s)",
			feed.Completed(), feed.Total(), g.PolicyName())
	}
	res := g.Finalize()
	res.Trace = feed.Trace
	return res, nil
}

// RunSessions replays a session-script workload against a static fleet,
// open- or closed-loop per cfg.ClosedLoop on the workload config that
// produced the scripts (passed explicitly here as `closed`). The returned
// Result carries the emitted Trace so callers can join records back to
// session turns.
func RunSessions(spec Spec, scripts []workload.SessionScript, cfg Config, closed bool) (*Result, error) {
	g, err := NewGateway(spec, cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	return runSessions(g, scripts, closed)
}

// RunSessionsGroups replays a session-script workload against a static
// heterogeneous fleet built from cfg.Groups — the composition-first
// spelling of RunSessions.
func RunSessionsGroups(scripts []workload.SessionScript, cfg Config, closed bool) (*Result, error) {
	g, err := NewGatewayGroups(cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	return runSessions(g, scripts, closed)
}

// runSessions feeds the scripts, runs the fleet to completion and
// finalizes.
func runSessions(g *Gateway, scripts []workload.SessionScript, closed bool) (*Result, error) {
	feed := FeedSessions(g, scripts, closed)
	if err := g.Run(); err != nil {
		return nil, err
	}
	if feed.Completed() != feed.Total() {
		return nil, fmt.Errorf("fleet: %d of %d session requests completed (policy %s)",
			feed.Completed(), feed.Total(), g.PolicyName())
	}
	res := g.Finalize()
	res.Trace = feed.Trace
	return res, nil
}
