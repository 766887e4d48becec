// Package serving defines the pieces shared by every serving engine in the
// simulator: the request lifecycle, the engine interface, and the driver
// that replays a workload trace against an engine on the discrete-event
// kernel.
//
// All engines — LoongServe (internal/core) and the baselines
// (internal/baselines) — advance simulated time exclusively through
// iteration durations computed by the ground-truth cost model, and account
// KV memory through kvcache.DistributedPool. They differ only in policy,
// which is exactly the comparison the paper's §7 makes.
package serving

import (
	"fmt"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/obs"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// Phase is a request's lifecycle phase.
type Phase int

// Request phases, in lifecycle order.
const (
	Pending Phase = iota
	Prefilling
	Decoding
	Finished
)

func (p Phase) String() string {
	switch p {
	case Pending:
		return "pending"
	case Prefilling:
		return "prefilling"
	case Decoding:
		return "decoding"
	case Finished:
		return "finished"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Request is one serving request flowing through an engine.
type Request struct {
	ID        kvcache.RequestID
	InputLen  int
	OutputLen int
	Arrival   simevent.Time
	SLOBudget time.Duration

	Phase      Phase
	Generated  int // output tokens produced so far
	FirstToken simevent.Time
	Finish     simevent.Time

	// KV is the engine's handle on the request's placement record in its
	// KV pool; engines pass it to DistributedPool.AllocRef so a decode
	// token skips the placement index.
	KV kvcache.Ref
}

// Tokens returns the total sequence length at completion.
func (r *Request) Tokens() int { return r.InputLen + r.OutputLen }

// KVNow returns the KV tokens the request occupies right now.
func (r *Request) KVNow() int { return r.InputLen + r.Generated }

// Record converts a finished request into a metrics record.
func (r *Request) Record() metrics.Record {
	return metrics.Record{
		ID:         int64(r.ID),
		InputLen:   r.InputLen,
		OutputLen:  r.OutputLen,
		Arrival:    time.Duration(r.Arrival),
		FirstToken: time.Duration(r.FirstToken),
		Finish:     time.Duration(r.Finish),
		SLOBudget:  r.SLOBudget,
	}
}

// Env is the simulation environment handed to an engine.
type Env struct {
	Sim     *simevent.Sim
	Cluster *cluster.Cluster
	CM      *costmodel.CostModel
	Pool    *kvcache.DistributedPool
	// Complete must be called exactly once per finished request.
	Complete func(*Request)
}

// Engine is a serving system policy.
type Engine interface {
	Name() string
	// Init binds the engine to a fresh environment before any arrival.
	Init(env *Env) error
	// Arrive delivers a request at its arrival time.
	Arrive(r *Request)
}

// LoadStats is a point-in-time snapshot of an engine's load, the
// introspection surface fleet routing policies key off. Counts are in
// requests; KVTokens is the resident KV footprint of admitted requests.
type LoadStats struct {
	Queued   int // arrived, not yet admitted into any batch
	Running  int // admitted (prefilling or decoding)
	KVTokens int // KV tokens held by admitted requests
}

// Outstanding returns the total in-flight request count.
func (s LoadStats) Outstanding() int { return s.Queued + s.Running }

// LoadReporter is implemented by engines that expose their internal queue
// state. Engines that do not implement it are still routable — the fleet
// gateway falls back to its own arrival/completion accounting — but
// policies see admission-queue depth only through this interface.
type LoadReporter interface {
	Load() LoadStats
}

// Capability is an engine's static serving envelope — what it *could*
// serve, as opposed to LoadStats' what it is serving right now. It is the
// per-replica half of heterogeneous-fleet routing: policies compare an
// arriving request against each replica's envelope before weighing load.
type Capability struct {
	// MaxSeqTokens is the largest single sequence (input + output KV) the
	// engine can ever hold under its placement discipline; a longer request
	// is structurally unservable (ErrOOM). Engines that shard one
	// sequence's KV across instances (elastic sequence parallelism) report
	// their whole pool; single-instance-locality engines report one
	// instance's capacity.
	MaxSeqTokens int
}

// CapabilityReporter is implemented by engines that can describe their
// serving envelope. Valid only after Init (the envelope depends on the
// bound cluster). Engines without it get a conservative default from the
// fleet layer: the largest single KV pool instance, i.e. no cross-instance
// sequence sharding.
type CapabilityReporter interface {
	Capability() Capability
}

// Traceable is implemented by engines that emit their elastic-scheduling
// events (prefill scale-down, decode scale-up, preemption, ...) as obs
// events with replica attribution; the LoongServe engine emits the paper's
// Fig 6 group lifecycle. A standalone run attaches a collector directly.
// The fleet gateway attaches each replica's own buffer, which replays into
// the run's sink, so engine-level events land in the same stream as the
// gateway's routing and migration events. Attach before Init; a nil sink
// detaches.
type Traceable interface {
	AttachObsSink(sink obs.Sink, replica int)
}

// DecodeFuser is implemented by engines that can collapse provably
// identical consecutive decode iterations into one simulator event
// (decode-iteration fusion). Fusion must be observationally exact: request
// records, load reports and emitted trace events are identical with it on
// or off — only the simulator event count drops. An engine chooses its own
// default (the LoongServe core fuses), and the fleet runs every replica at
// that default.
//
// Deprecated: no caller sets fusion through this interface; build the
// unfused reference by calling the engine's own SetDecodeFusion(false).
type DecodeFuser interface {
	SetDecodeFusion(on bool)
}

// ErrOOM is returned by Run when the engine declares the workload
// unservable (a request can never fit), reproducing the paper's DistServe
// OOM rows in Fig 10.
type ErrOOM struct {
	System string
	Req    kvcache.RequestID
	Tokens int
	Limit  int
}

func (e *ErrOOM) Error() string {
	return fmt.Sprintf("%s: request %d needs %d KV tokens, pool limit %d: out of memory",
		e.System, e.Req, e.Tokens, e.Limit)
}

// RunConfig controls a driver run.
type RunConfig struct {
	SLOScale float64 // latency budget = SLOScale x unloaded latency; 25 in the paper
	// MaxEvents bounds the simulation as a divergence backstop (0 = default).
	MaxEvents uint64
}

// DefaultRunConfig returns the paper's settings.
func DefaultRunConfig() RunConfig { return RunConfig{SLOScale: 25} }

// IdealLatency returns the unloaded end-to-end latency of a request on the
// reference configuration (all GPUs, pure tensor parallelism): the SLO
// denominator. The decode term uses the request's mean resident KV length.
func IdealLatency(cm *costmodel.CostModel, gpus int, in, out int) time.Duration {
	link := cluster.Link{Bandwidth: cm.HW.NVLinkBandwidth, Latency: cm.HW.NVLinkLatency}
	d := cm.PrefillIterTime([]int{in}, 1, gpus, link)
	if out > 1 {
		meanKV := in + out/2
		d += time.Duration(out-1) * cm.DecodeIterTime(1, meanKV, 1, gpus, 1, link)
	}
	return d
}

// SLOBudget returns a request's latency budget: scale times its unloaded
// latency on the reference configuration. Shared by Run and the fleet
// gateway so budgets agree across deployment shapes.
func SLOBudget(cm *costmodel.CostModel, gpus, in, out int, scale float64) time.Duration {
	return time.Duration(scale * float64(IdealLatency(cm, gpus, in, out)))
}

// RunStats reports simulator-level statistics of one Run — the
// wall-clock-free work measure behind events per second.
type RunStats struct {
	Events uint64 // discrete events fired by the simulation
}

// Run replays a trace against an engine and returns one metrics record per
// completed request. Engines signal unservable workloads by panicking with
// *ErrOOM, which Run converts to an error (the discrete-event kernel has no
// error channel through event callbacks, and an OOM aborts the whole run,
// matching the paper's missing DistServe curves).
func Run(eng Engine, c *cluster.Cluster, cm *costmodel.CostModel, trace []workload.TimedRequest, cfg RunConfig) ([]metrics.Record, error) {
	recs, _, err := RunWithStats(eng, c, cm, trace, cfg)
	return recs, err
}

// RunWithStats is Run, additionally reporting simulator statistics.
func RunWithStats(eng Engine, c *cluster.Cluster, cm *costmodel.CostModel, trace []workload.TimedRequest, cfg RunConfig) (recs []metrics.Record, stats RunStats, err error) {
	sim := simevent.New()
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 200_000_000
	}
	sim.MaxEvents = cfg.MaxEvents

	totalGPUs := 0
	for _, inst := range c.Instances {
		totalGPUs += inst.TP
	}

	env := &Env{
		Sim:     sim,
		Cluster: c,
		CM:      cm,
		Pool:    c.NewPool(),
	}
	env.Complete = func(r *Request) {
		if r.Phase != Finished {
			panic(fmt.Sprintf("serving: Complete(%d) in phase %v", r.ID, r.Phase))
		}
		recs = append(recs, r.Record())
	}
	if err := eng.Init(env); err != nil {
		return nil, RunStats{}, err
	}

	for i, tr := range trace {
		r := &Request{
			ID:        kvcache.RequestID(i + 1),
			InputLen:  tr.InputLen,
			OutputLen: tr.OutputLen,
			Arrival:   simevent.Time(tr.Arrival),
		}
		if cfg.SLOScale > 0 {
			r.SLOBudget = SLOBudget(cm, totalGPUs, r.InputLen, r.OutputLen, cfg.SLOScale)
		}
		// Arrivals ride the staged timeline: the whole trace stays out of
		// the heap, so engine-event scheduling costs O(log active).
		sim.Stage(r.Arrival, func() { eng.Arrive(r) })
	}

	defer func() {
		stats.Events = sim.Fired()
		if p := recover(); p != nil {
			if oom, ok := p.(*ErrOOM); ok {
				err = oom
				recs = nil
				return
			}
			panic(p)
		}
	}()
	sim.Run()
	return recs, stats, nil
}
