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

// feedBase is what every workload feed shares: the gateway it drives, its
// request accounting, the trace of what it emitted, and the one path that
// runs the gateway to completion and checks it (finish).
type feedBase struct {
	g       *Gateway
	total   int
	emitted int

	// Trace records every emitted request in submission order; index i
	// corresponds to request ID i+1, so records can be joined back to
	// (session, turn) identities. Streaming runs (Config.StreamMetrics)
	// drop it: retaining one TimedRequest (with its block-hash chain) per
	// emitted request would rebuild the O(requests) footprint the flag
	// exists to remove, and with Records gone there is nothing to join the
	// trace back to.
	Trace []workload.TimedRequest
}

// Total returns the number of requests the feed emits. For a lazy stream
// it counts the sessions pulled so far; once the simulation drains it
// equals the whole workload's request count.
func (f *feedBase) Total() int { return f.total }

// Completed returns the number of finished requests.
func (f *feedBase) Completed() int { return f.g.Completed() }

// submit emits e as the feed's next request, arriving now, and returns its
// ID.
func (f *feedBase) submit(e workload.Entry) kvcache.RequestID {
	f.emitted++
	id := kvcache.RequestID(f.emitted)
	now := f.g.sim.Now()
	if !f.g.cfg.StreamMetrics {
		f.Trace = append(f.Trace, workload.TimedRequest{Entry: e, Arrival: time.Duration(now)})
	}
	f.g.Submit(&serving.Request{
		ID:        id,
		InputLen:  e.InputLen,
		OutputLen: e.OutputLen,
		Arrival:   now,
		SLOBudget: f.g.SLOBudget(e.InputLen, e.OutputLen),
	}, e)
	return id
}

// finish is every run function's tail: run the gateway until its simulator
// drains, check that every request the feed emitted completed, and
// finalize the Result with the feed's trace.
func (f *feedBase) finish() (*Result, error) {
	if err := f.g.Run(); err != nil {
		return nil, err
	}
	if done := f.g.Completed(); done != f.total {
		return nil, fmt.Errorf("fleet: %d of %d requests completed (policy %s)", done, f.total, f.g.PolicyName())
	}
	res := f.g.Finalize()
	res.Trace = f.Trace
	return res, nil
}

// SessionFeed drives a session-script workload through a gateway, emitting
// each conversation's turns as simulator events. In open-loop mode turn
// t+1 fires Think seconds after turn t's arrival (the static-trace
// semantics); in closed-loop mode it fires Think seconds after turn t
// *completes*, so an overloaded fleet sees its own backpressure — the next
// turn cannot arrive while the previous one is still queued, which is what
// makes saturation measurements honest.
type SessionFeed struct {
	feedBase
	byID   map[int64]*workload.SessionScript
	closed bool

	// Closed loop only: the think times that follow in-flight requests,
	// whose minimum is the runner's window lookahead.
	thinks thinkHeap
}

// FeedSessions schedules a session workload onto a gateway and, in
// closed-loop mode, takes over its OnComplete hook. Call before running
// the simulator.
func FeedSessions(g *Gateway, scripts []workload.SessionScript, closed bool) *SessionFeed {
	f := &SessionFeed{
		feedBase: feedBase{g: g, total: workload.NumRequests(scripts)},
		byID:     make(map[int64]*workload.SessionScript, len(scripts)),
		closed:   closed,
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
	if closed {
		g.OnComplete = f.onComplete
		// Request IDs are dense (1..total), so completion marks index by ID
		// and the heap never outgrows one entry per request.
		f.thinks = thinkHeap{items: make([]thinkItem, 0, f.total), done: make([]bool, f.total+1)}
		g.shard.lookahead = f.thinks.min
	}
	return f
}

// emit submits turn t of script s at the current simulated time and, in
// open-loop mode, chains the next turn's arrival off this one.
func (f *SessionFeed) emit(s *workload.SessionScript, t int) {
	id := f.submit(s.Entry(t))
	if t+1 < len(s.Turns) {
		think := simevent.FromSeconds(s.Turns[t].Think)
		if f.closed {
			f.thinks.push(think, id)
		} else {
			f.g.sim.After(think, func() { f.emit(s, t+1) })
		}
	}
}

// onComplete is the closed-loop completion hook: the session's next turn
// triggers its think time from here.
func (f *SessionFeed) onComplete(e workload.Entry, rec metrics.Record) {
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

// streamFeed drives a lazily sampled session workload
// (workload.StreamSessions) through a gateway, open-loop. It pulls one
// branching family from the stream at a time and schedules the next
// session's start when the current one starts — sound because the
// sampler's Start times are non-decreasing — so memory holds only the live
// sessions plus one family, never the whole workload. With
// Config.StreamMetrics set, a day-long million-session run is O(live
// sessions) resident.
type streamFeed struct {
	feedBase
	stream *workload.SessionStream
	family []workload.SessionScript
	idx    int
}

// scheduleNext arms the start of the next unstarted session, pulling the
// next family from the stream when the current one is exhausted.
func (f *streamFeed) scheduleNext() {
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
func (f *streamFeed) emit(s *workload.SessionScript, t int) {
	f.submit(s.Entry(t))
	if t+1 < len(s.Turns) {
		f.g.sim.After(simevent.FromSeconds(s.Turns[t].Think), func() { f.emit(s, t+1) })
	}
}

// RunSessions replays a session-script workload against the fleet
// cfg.Groups describes, open- or closed-loop per cfg.ClosedLoop on the
// workload config that produced the scripts (passed explicitly here as
// `closed`). The returned Result carries the emitted Trace so callers can
// join records back to session turns.
func RunSessions(scripts []workload.SessionScript, cfg Config, closed bool) (*Result, error) {
	g, err := NewGateway(cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	return FeedSessions(g, scripts, closed).finish()
}

// RunSessionStream replays a lazily sampled open-loop session workload
// against the fleet cfg.Groups describes — the streaming counterpart of
// RunSessions(…, closed=false), sized for day-long million-session traces
// (pair with Config.StreamMetrics and, for multi-core execution,
// Config.Shards).
func RunSessionStream(stream *workload.SessionStream, cfg Config) (*Result, error) {
	g, err := NewGateway(cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	f := &streamFeed{feedBase: feedBase{g: g}, stream: stream}
	f.scheduleNext()
	return f.finish()
}
