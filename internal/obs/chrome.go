package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"loongserve/internal/simevent"
)

// ChromeOptions parameterizes the Chrome trace-event export.
type ChromeOptions struct {
	// ReplicaKinds names each global replica index's kind; replica tracks
	// are labeled "replica N (kind)". Indices beyond the slice fall back to
	// "replica N".
	ReplicaKinds []string
	// Policy is recorded in the trace's otherData block.
	Policy string
}

// Track layout of the exported trace. One process per replica plus one for
// the gateway and one holding a thread per session, so Perfetto shows
// per-replica and per-session swim lanes side by side.
const (
	chromePIDGateway     = 1
	chromePIDSessions    = 2
	chromePIDReplicaBase = 10

	chromeTIDAutoscaler = 1 // gateway pid
	chromeTIDRouter     = 2 // gateway pid: stateless request instants

	chromeTIDLifecycle  = 1 // replica pid
	chromeTIDMigrations = 2 // replica pid
	chromeTIDEngine     = 3 // replica pid
	chromeTIDRequests   = 4 // replica pid: stateless request spans
)

// WriteChromeTrace renders the event stream (and, when non-nil, the
// sampler's time series as counter tracks) as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// The JSON is written by hand, field order fixed and map iteration sorted,
// so the output is byte-identical for identical inputs regardless of how
// the run that produced them was executed — the property the serial-vs-
// parallel determinism guard asserts.
func WriteChromeTrace(w io.Writer, events []Event, sampler *Sampler, opts ChromeOptions) error {
	bw := bufio.NewWriter(w)
	cw := &chromeWriter{w: bw}

	// Pre-scan: how many replicas appear, and which sessions.
	nReplicas := len(opts.ReplicaKinds)
	sessions := map[int64]bool{}
	grow := func(r int) {
		if r+1 > nReplicas {
			nReplicas = r + 1
		}
	}
	for _, e := range events {
		if e.Replica >= 0 {
			grow(e.Replica)
		}
		if e.Kind == KindMigrate && e.A >= 0 {
			grow(int(e.A))
		}
		if e.Session != 0 {
			sessions[e.Session] = true
		}
	}
	if sampler != nil {
		for _, s := range sampler.Samples() {
			grow(s.Replica)
		}
	}
	sessionIDs := make([]int64, 0, len(sessions))
	for id := range sessions {
		sessionIDs = append(sessionIDs, id)
	}
	sort.Slice(sessionIDs, func(i, j int) bool { return sessionIDs[i] < sessionIDs[j] })

	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"loongserve-obs\",\"policy\":%s},\"traceEvents\":[\n",
		quote(opts.Policy))

	// Metadata: process and thread names, in a fixed order.
	cw.meta(chromePIDGateway, 0, "process_name", "gateway")
	cw.meta(chromePIDGateway, 0, "process_sort_index", "0")
	cw.meta(chromePIDGateway, chromeTIDAutoscaler, "thread_name", "autoscaler")
	cw.meta(chromePIDGateway, chromeTIDRouter, "thread_name", "router")
	if len(sessionIDs) > 0 {
		cw.meta(chromePIDSessions, 0, "process_name", "sessions")
		cw.meta(chromePIDSessions, 0, "process_sort_index", "1")
		for _, id := range sessionIDs {
			cw.meta(chromePIDSessions, id, "thread_name", fmt.Sprintf("session %d", id))
		}
	}
	for r := 0; r < nReplicas; r++ {
		name := fmt.Sprintf("replica %d", r)
		if r < len(opts.ReplicaKinds) && opts.ReplicaKinds[r] != "" {
			name = fmt.Sprintf("replica %d (%s)", r, opts.ReplicaKinds[r])
		}
		pid := chromePIDReplicaBase + int64(r)
		cw.meta(pid, 0, "process_name", name)
		cw.meta(pid, 0, "process_sort_index", strconv.Itoa(2+r))
		cw.meta(pid, chromeTIDLifecycle, "thread_name", "lifecycle")
		cw.meta(pid, chromeTIDMigrations, "thread_name", "migrations")
		cw.meta(pid, chromeTIDEngine, "thread_name", "engine")
		cw.meta(pid, chromeTIDRequests, "thread_name", "requests")
	}

	for _, e := range events {
		cw.event(e)
	}
	if sampler != nil {
		for _, s := range sampler.Samples() {
			pid := chromePIDReplicaBase + int64(s.Replica)
			cw.counter(pid, s.At, "load", argList{
				{"queue_depth", float64(s.QueueDepth)},
				{"queued", float64(s.Queued)},
			})
			cw.counter(pid, s.At, "tokens", argList{
				{"outstanding", float64(s.OutTokens)},
				{"kv", float64(s.KVTokens)},
				{"cache", float64(s.CacheUsed)},
			})
			cw.counter(pid, s.At, "cache_hit_rate", argList{
				{"rate", s.HitRate()},
			})
		}
		for _, s := range sampler.FleetSamples() {
			cw.counter(chromePIDGateway, s.At, "replicas", argList{
				{"active", float64(s.Active)},
				{"warming", float64(s.Warming)},
				{"draining", float64(s.Draining)},
			})
			cw.counter(chromePIDGateway, s.At, "fleet", argList{
				{"outstanding_reqs", float64(s.OutstandingReqs)},
				{"cost_units", s.CostUnits},
			})
		}
	}

	bw.WriteString("\n]}\n")
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// argList is an ordered set of numeric args — ordered so the rendering is
// deterministic (a map would iterate randomly).
type argList []struct {
	k string
	v float64
}

// chromeWriter emits trace-event objects, comma-separating them.
type chromeWriter struct {
	w     *bufio.Writer
	wrote bool
	err   error
}

func (cw *chromeWriter) begin() {
	if cw.wrote {
		cw.w.WriteString(",\n")
	}
	cw.wrote = true
}

// ts renders a nanosecond timestamp as trace-event microseconds.
func ts(at int64) string {
	return fmt.Sprintf("%d.%03d", at/1000, at%1000)
}

func (cw *chromeWriter) meta(pid, tid int64, name, value string) {
	cw.begin()
	fmt.Fprintf(cw.w, "{\"name\":%s,\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
		quote(name), pid, tid, quote(value))
}

func (cw *chromeWriter) instant(pid, tid int64, at int64, name string, args argList) {
	cw.begin()
	fmt.Fprintf(cw.w, "{\"name\":%s,\"ph\":\"i\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"s\":\"t\"",
		quote(name), ts(at), pid, tid)
	cw.args(args)
	cw.w.WriteString("}")
}

func (cw *chromeWriter) span(pid, tid int64, start, dur int64, name string, args argList) {
	if dur < 0 {
		dur = 0
	}
	cw.begin()
	fmt.Fprintf(cw.w, "{\"name\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d",
		quote(name), ts(start), ts(dur), pid, tid)
	cw.args(args)
	cw.w.WriteString("}")
}

func (cw *chromeWriter) counter(pid int64, at simevent.Time, name string, args argList) {
	cw.begin()
	fmt.Fprintf(cw.w, "{\"name\":%s,\"ph\":\"C\",\"ts\":%s,\"pid\":%d,\"tid\":0",
		quote(name), ts(int64(at)), pid)
	cw.args(args)
	cw.w.WriteString("}")
}

func (cw *chromeWriter) args(args argList) {
	if len(args) == 0 {
		return
	}
	cw.w.WriteString(",\"args\":{")
	for i, a := range args {
		if i > 0 {
			cw.w.WriteString(",")
		}
		cw.w.WriteString(quote(a.k))
		cw.w.WriteString(":")
		cw.w.WriteString(num(a.v))
	}
	cw.w.WriteString("}")
}

// event dispatches one Event to its track.
func (cw *chromeWriter) event(e Event) {
	at := int64(e.At)
	switch e.Kind {
	case KindEnqueue:
		if e.Session != 0 {
			cw.instant(chromePIDSessions, e.Session, at, "enqueue", argList{
				{"req", float64(e.Request)}, {"in", float64(e.Tokens)}, {"out", float64(e.A)},
			})
		} else {
			cw.instant(chromePIDGateway, chromeTIDRouter, at, "enqueue", argList{
				{"req", float64(e.Request)}, {"in", float64(e.Tokens)}, {"out", float64(e.A)},
			})
		}
	case KindRoute:
		args := argList{
			{"req", float64(e.Request)}, {"replica", float64(e.Replica)}, {"from", float64(e.A)},
		}
		if e.Session != 0 {
			cw.instant(chromePIDSessions, e.Session, at, "route", args)
		} else {
			cw.instant(chromePIDGateway, chromeTIDRouter, at, "route", args)
		}
	case KindCacheLookup:
		args := argList{
			{"req", float64(e.Request)}, {"hit", float64(e.Tokens)}, {"input", float64(e.A)},
		}
		name := "cache-hit"
		if e.Tokens == 0 {
			name = "cache-miss"
		}
		if e.Session != 0 {
			cw.instant(chromePIDSessions, e.Session, at, name, args)
		} else {
			pid := chromePIDReplicaBase + int64(e.Replica)
			cw.instant(pid, chromeTIDRequests, at, name, args)
		}
	case KindMigrate:
		pid := chromePIDReplicaBase + int64(e.Replica)
		cw.span(pid, chromeTIDMigrations, at, e.B, "migrate:"+e.Label, argList{
			{"dest", float64(e.A)}, {"tokens", float64(e.Tokens)},
		})
	case KindFinish:
		first, arrival := e.A, e.B
		args := argList{
			{"req", float64(e.Request)}, {"replica", float64(e.Replica)}, {"out", float64(e.Tokens)},
		}
		pid, tid := int64(chromePIDSessions), e.Session
		if e.Session == 0 {
			pid, tid = chromePIDReplicaBase+int64(e.Replica), chromeTIDRequests
		}
		cw.span(pid, tid, arrival, first-arrival, "prefill", args)
		cw.span(pid, tid, first, at-first, "decode", args)
	case KindProvision, KindActivate, KindDrain, KindRetire:
		pid := chromePIDReplicaBase + int64(e.Replica)
		var args argList
		if e.Label != "" {
			// Kind names are numeric-only args elsewhere; encode the replica
			// kind as a dedicated instant name instead of a string arg so the
			// args block stays uniformly numeric.
			cw.instant(pid, chromeTIDLifecycle, at, e.Kind.String()+":"+e.Label, args)
			return
		}
		cw.instant(pid, chromeTIDLifecycle, at, e.Kind.String(), args)
	case KindAutoscale:
		cw.instant(chromePIDGateway, chromeTIDAutoscaler, at, e.Label, argList{
			{"replica", float64(e.Replica)}, {"outstanding", float64(e.Tokens)},
			{"active", float64(e.A)}, {"warming", float64(e.B)},
		})
	case KindCrash:
		pid := chromePIDReplicaBase + int64(e.Replica)
		name := "crash"
		if e.Label != "" {
			name = "crash:" + e.Label
		}
		cw.instant(pid, chromeTIDLifecycle, at, name, argList{
			{"inflight", float64(e.Tokens)}, {"kv_lost", float64(e.A)},
		})
	case KindRecover:
		args := argList{
			{"req", float64(e.Request)}, {"salvaged", float64(e.Tokens)}, {"from", float64(e.A)},
		}
		if e.Session != 0 {
			cw.instant(chromePIDSessions, e.Session, at, "recover", args)
		} else {
			cw.instant(chromePIDGateway, chromeTIDRouter, at, "recover", args)
		}
	case KindHedgeLaunch:
		pid := chromePIDReplicaBase + int64(e.Replica)
		cw.instant(pid, chromeTIDRequests, at, "hedge-launch", argList{
			{"req", float64(e.Request)}, {"in", float64(e.Tokens)},
			{"primary", float64(e.A)}, {"elapsed_ns", float64(e.B)},
		})
	case KindHedgeWin, KindHedgeLose:
		pid := chromePIDReplicaBase + int64(e.Replica)
		cw.instant(pid, chromeTIDRequests, at, e.Kind.String(), argList{
			{"req", float64(e.Request)}, {"tokens", float64(e.Tokens)}, {"other", float64(e.A)},
		})
	case KindDirectoryUpdate:
		// The directory is gateway state — render on the router track even
		// when the location is a replica (or -1, the cold tier), which a
		// replica-keyed pid could not express.
		cw.instant(chromePIDGateway, chromeTIDRouter, at, "directory:"+e.Label, argList{
			{"loc", float64(e.Replica)}, {"delta", float64(e.Tokens)}, {"total", float64(e.A)},
		})
	case KindContentRoute:
		cw.instant(chromePIDGateway, chromeTIDRouter, at, "content-route", argList{
			{"req", float64(e.Request)}, {"dest", float64(e.Replica)},
			{"claim", float64(e.Tokens)}, {"queue", float64(e.A)}, {"eligible", float64(e.B)},
		})
	case KindColdSpill:
		pid := chromePIDReplicaBase + int64(e.Replica)
		cw.instant(pid, chromeTIDMigrations, at, "cold-spill", argList{
			{"tokens", float64(e.Tokens)}, {"cold_used", float64(e.A)}, {"cold_blocks", float64(e.B)},
		})
	case KindColdFetch:
		pid := chromePIDReplicaBase + int64(e.Replica)
		cw.instant(pid, chromeTIDMigrations, at, "cold-fetch", argList{
			{"req", float64(e.Request)}, {"tokens", float64(e.Tokens)},
			{"link_ns", float64(e.A)}, {"recompute_ns", float64(e.B)},
		})
	default: // engine kinds
		pid := chromePIDReplicaBase + int64(e.Replica)
		cw.instant(pid, chromeTIDEngine, at, e.Kind.String(), argList{
			{"group", float64(e.Group)}, {"tokens", float64(e.Tokens)},
			{"dop", float64(e.A)}, {"batch", float64(e.B)},
		})
	}
}

// quote renders a JSON string literal. Inputs are code-controlled labels;
// the escaper still covers the full set so no input can corrupt the JSON.
func quote(s string) string {
	return strconv.Quote(s)
}

// num renders a float deterministically: integral values print as
// integers, the rest in shortest round-trip form.
func num(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
