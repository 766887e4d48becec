// Package obs is the fleet-wide observability layer: a single event stream
// spanning gateway → fleet → engine, plus a periodic telemetry sampler,
// with exporters to Chrome trace-event JSON (Perfetto-loadable), JSONL and
// a textual timeline. The LoongServe engine (internal/core) emits its
// elastic-scheduling events into an attached Sink directly, whether it
// runs alone or as a fleet replica, and keeps no event log of its own.
//
// The design constraint is the hot path: emitting one event must cost one
// interface call with a by-value, fixed-size Event — no allocation, no
// formatting, no map lookups — and a disabled stream (nil Sink) must cost
// exactly one nil check. Event therefore carries only scalars plus static
// string labels; all rendering (names, per-kind argument interpretation)
// happens in the exporters, after the run. Emitters that need dynamic
// detail encode it in the kind-specific A/B fields documented below.
//
// Everything here is simulation-clock time (simevent.Time); the sampler
// ticks on simulated seconds, not wall time.
package obs

import (
	"fmt"

	"loongserve/internal/simevent"
)

// Kind discriminates observability events. Gateway kinds cover the
// request lifecycle and replica lifecycle; engine kinds are the elastic
// scheduling events of the LoongServe engine, with replica attribution.
type Kind uint8

// Event kinds. The request-lifecycle chain for a routed request is
// Enqueue → Route → CacheLookup → (Migrate)* → Finish; replica lifecycle
// is Provision → Activate → (Drain → Retire), with Crash the abnormal
// exit; Autoscale marks controller decisions; the engine kinds are the
// paper's Fig 6 group lifecycle. The fault-tolerance kinds (Crash, Recover,
// HedgeLaunch, HedgeWin, HedgeLose) annotate the chain: a crashed
// request's Recover precedes its recovery re-enqueue, and a hedged
// request resolves with exactly one of HedgeWin/HedgeLose per launch.
const (
	// KindEnqueue: a request entered the gateway. Tokens = input length,
	// A = output length, B = SLO budget in nanoseconds (0 = no SLO) — so
	// post-run analysis can compute SLO burn without a join against the
	// driver's records. Replica is -1 (not yet routed). A request that is
	// re-routed after its migration destination drained mid-transfer
	// enqueues again — the second event marks the re-entry into routing.
	KindEnqueue Kind = iota
	// KindRoute: the policy picked a destination. Replica = chosen global
	// replica index, A = migration source replica (-1 = plain route),
	// Label = policy name.
	KindRoute
	// KindCacheLookup: the prefix-cache lookup on the serving replica.
	// Tokens = hit tokens (0 = miss), A = full input length.
	KindCacheLookup
	// KindMigrate: a session KV transfer. Replica = source, A = destination,
	// Tokens = KV tokens moved, B = link delay in nanoseconds,
	// Label = cause ("drain", "handoff", "route").
	KindMigrate
	// KindFinish: a request completed. Replica = serving replica,
	// Tokens = output length, A = first-token time (ns), B = arrival time
	// (ns) — so exporters rebuild the prefill span [B, A] and the decode
	// span [A, At] without a join.
	KindFinish
	// Replica lifecycle (Replica = index, Label = replica kind name).
	KindProvision
	KindActivate
	KindDrain
	KindRetire
	// KindAutoscale: a controller decision. Label = "scale-up" or
	// "scale-down", Replica = affected replica (-1 when unknown),
	// Tokens = outstanding requests at decision time, A = active replicas,
	// B = warming replicas.
	KindAutoscale
	// Engine elastic-scheduling kinds, emitted by the LoongServe engine
	// with replica attribution: Group = parallel group id, Tokens as the
	// engine counted it (batch input tokens, retained instances, moved or
	// preempted KV; 0 when none), A = degree of parallelism (instances in
	// the group), B = group batch size.
	KindPrefillStart
	KindScaleDown
	KindScaleUp
	KindJoin
	KindShrink
	KindEvacuate
	KindPreempt
	KindDissolve
	KindPiggyback
	// KindEngineEvent is emitted by nothing. It keeps its number because
	// perfbench's output digest folds numeric kinds, so renumbering the
	// kinds after it would move the pinned fleet-elastic and fleet-stream
	// digests.
	KindEngineEvent
	// Fault-tolerance kinds (appended after the engine range so
	// EngineKind's contiguous check stays valid).
	//
	// KindCrash: a replica failed, destroying its resident KV and killing
	// its in-flight work. Replica = crashed replica, Tokens = in-flight
	// requests lost, A = resident prefix-KV tokens destroyed, Label =
	// replica kind name. No event attributed to the replica may follow.
	KindCrash
	// KindRecover: one crashed request re-entering routing. Replica = -1
	// (the re-route happens next), Tokens = salvaged KV tokens still warm
	// on surviving replicas, A = the crashed replica it was rescued from.
	// Emitted immediately before the request's recovery re-enqueue.
	KindRecover
	// KindHedgeLaunch: a straggling request was duplicated to a second
	// replica. Replica = hedge destination, Tokens = input length,
	// A = primary replica, B = elapsed ns since arrival at launch.
	KindHedgeLaunch
	// KindHedgeWin: the hedge copy finished first. Replica = winning hedge
	// replica, A = losing primary replica.
	KindHedgeWin
	// KindHedgeLose: the primary finished first (or the hedge replica
	// crashed). Replica = losing hedge replica, Tokens = tokens of work
	// the loser burns anyway (engines cannot cancel), A = winning replica.
	KindHedgeLose
	// Cache-directory kinds (appended for the global cache directory and
	// cold KV tier; see internal/fleet/directory.go).
	//
	// KindDirectoryUpdate: the gateway's global cache directory changed at
	// one location. Replica = location (replica index; -1 = cold tier),
	// Tokens = signed resident-token delta, A = resulting resident tokens
	// at the location, Label = cause ("add", "remove", "wipe",
	// "cold-evict"). A crash or drain wipe appears as one negative bulk
	// delta — the only event legally attributed to a crashed replica
	// after its crash.
	KindDirectoryUpdate
	// KindContentRoute: the content-affinity policy picked a destination
	// off the directory. Replica = destination, Tokens = directory-
	// resident overlap tokens claimed at pick time, A = destination queue
	// depth, B = eligible replica count.
	KindContentRoute
	// KindColdSpill: a capacity-evicted block was copied into the cold
	// tier. Replica = source replica, Tokens = block tokens spilled,
	// A = cold-tier used tokens after, B = cold-tier blocks after.
	KindColdSpill
	// KindColdFetch: cold KV was copied over the interconnect to a
	// replica ahead of a prefill. Replica = destination, Tokens = tokens
	// fetched, A = link transfer ns paid, B = recompute ns displaced.
	KindColdFetch

	numKinds
)

var kindNames = [numKinds]string{
	KindEnqueue:      "enqueue",
	KindRoute:        "route",
	KindCacheLookup:  "cache-lookup",
	KindMigrate:      "migrate",
	KindFinish:       "finish",
	KindProvision:    "provision",
	KindActivate:     "activate",
	KindDrain:        "drain",
	KindRetire:       "retire",
	KindAutoscale:    "autoscale",
	KindPrefillStart: "prefill-start",
	KindScaleDown:    "scale-down",
	KindScaleUp:      "scale-up",
	KindJoin:         "join",
	KindShrink:       "shrink",
	KindEvacuate:     "evacuate",
	KindPreempt:      "preempt",
	KindDissolve:     "dissolve",
	KindPiggyback:    "piggyback",
	KindEngineEvent:  "engine-event",
	KindCrash:        "crash",
	KindRecover:      "recover",
	KindHedgeLaunch:  "hedge-launch",
	KindHedgeWin:     "hedge-win",
	KindHedgeLose:    "hedge-lose",

	KindDirectoryUpdate: "directory-update",
	KindContentRoute:    "content-route",
	KindColdSpill:       "cold-spill",
	KindColdFetch:       "cold-fetch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindByName maps an exported kind name back to its Kind — the inverse of
// String, used when re-ingesting JSONL streams. The second result is false
// for unknown names.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// EngineKind reports whether k is one of the engine's elastic events.
func (k Kind) EngineKind() bool { return k >= KindPrefillStart && k <= KindEngineEvent }

// Event is one observability event. It is a fixed-size value type: emitting
// one costs no allocation, and Label must be a static (or run-long-lived)
// string — emitters never format. The meaning of Tokens, A and B is
// kind-specific; see the Kind constants.
type Event struct {
	At      simevent.Time
	Kind    Kind
	Replica int   // global replica index; -1 = fleet-level
	Group   int   // engine parallel-group id; -1 = not engine-scoped
	Session int64 // workload session id; 0 = stateless
	Request int64 // request id; 0 = not request-scoped
	Tokens  int   // kind-specific primary token quantity
	A, B    int64 // kind-specific auxiliaries
	Label   string
}

// Sink receives the event stream. Emit is called synchronously on the
// simulation goroutine; implementations must not block. A nil Sink means
// observability is off — every emitter nil-checks before building an Event,
// which is the zero-overhead gate.
type Sink interface {
	Emit(Event)
}

// Collector is the standard Sink: it retains every event in arrival order
// for post-run export. The zero value is ready to use.
type Collector struct {
	Events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(e Event) { c.Events = append(c.Events, e) }

// Reset drops collected events but keeps the backing array, so a reused
// collector appends allocation-free up to its previous high-water mark.
func (c *Collector) Reset() { c.Events = c.Events[:0] }

// Counts tallies events per kind — the replay summary surface.
func Counts(events []Event) map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// Tee fans one stream out to several sinks, in order.
type Tee []Sink

// Emit implements Sink.
func (t Tee) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}
