// Package baselines implements the serving systems LoongServe is compared
// against in §7: vLLM-style static tensor parallelism with continuous
// batching, chunked prefill (SplitFuse, standing in for both DeepSpeed-MII
// and LightLLM w/ SplitFuse), DistServe-style prefill/decode
// disaggregation with reactive KV migration, and the two no-ESP ablations
// of Fig 12 (static hybrid SPxTP and TP=2 replication).
//
// Every baseline runs on the same simulated cluster and ground-truth cost
// model as LoongServe; only the scheduling policy differs.
package baselines

import (
	"fmt"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// ContBatch is a continuous-batching engine over one *fixed* parallel
// group: the classic vLLM scheduler. Prefills are scheduled ahead of
// decodes and never mixed into a decode iteration, so long prefills stall
// decoding — the interference LoongServe's phase separation removes.
//
// With SP=1 and all GPUs in one instance it models vLLM (TP=8). With SP>1
// it models the "LoongServe w/o ESP (TP=t, SP=s)" static-hybrid ablation:
// sequence parallelism without elasticity.
type ContBatch struct {
	Label     string
	Instances []kvcache.InstanceID // the fixed group
	SP        int                  // == len(Instances)
	TP        int
	Masters   int  // decode masters (static)
	Spread    bool // true: KV spread over the group; false: single-instance locality

	// MaxBatch caps the decode batch (vLLM max_num_seqs).
	MaxBatch int
	// MaxPrefillTokens caps tokens batched into one prefill iteration
	// beyond the first request.
	MaxPrefillTokens int
	// Unfused turns decode-iteration fusion (fuse.go) off, so every decode
	// iteration fires its own simulator event: the reference the fusion
	// tests compare against. Set it before Init. Outputs are identical
	// either way; only the simulator event count differs.
	Unfused bool

	env  *serving.Env
	link cluster.Link

	waiting   []*serving.Request
	running   []*serving.Request
	recompute map[kvcache.RequestID]int // prefill length after preemption
	busy      bool

	// Iteration plumbing: one owned simulator event per phase with a
	// callback bound at Init, plus reusable batch scratch. At most one
	// iteration is ever in flight (busy), and the in-flight batch is
	// immutable until its completion callback runs, so the scratch slices
	// are safe to reuse — the steady-state decode loop allocates nothing.
	decodeEv     *simevent.Event
	prefillEv    *simevent.Event
	decodeBatch  []*serving.Request
	prefillBatch []*serving.Request
	prefillLens  []int

	// sharedHeap marks a Router's sub-engine, which shares its simulator
	// heap with its siblings and so never fuses (fuse.go, condition 4).
	sharedHeap bool
	// The live fused decode window (fuse.go), when fuseK > 0: fuseK
	// iterations from a launch with fuseKV resident KV, fuseDone of them
	// materialized, the next ending at fuseNext, each costed by fuseStep.
	fuseK    int
	fuseDone int
	fuseNext simevent.Time
	fuseKV   int
	fuseStep costmodel.DecodeStep
	fusion   fusionStats

	// Preemptions counts recompute evictions (instrumentation).
	Preemptions int
}

// Capability implements serving.CapabilityReporter (valid after Init): the
// largest sequence the placement discipline can hold — the whole group when
// KV spreads, one instance under locality.
func (e *ContBatch) Capability() serving.Capability {
	return serving.Capability{MaxSeqTokens: e.capacity()}
}

// Load implements serving.LoadReporter. A fused decode window materializes
// its elapsed iterations first, so readers see the exact unfused state.
func (e *ContBatch) Load() serving.LoadStats {
	e.syncFused()
	st := serving.LoadStats{Queued: len(e.waiting), Running: len(e.running)}
	for _, r := range e.running {
		st.KVTokens += r.KVNow()
	}
	return st
}

// NewVLLM returns the vLLM baseline: one instance spanning all GPUs,
// tensor parallelism only.
func NewVLLM(tp int) *ContBatch {
	return &ContBatch{
		Label: fmt.Sprintf("vLLM (TP=%d)", tp),
		SP:    1, TP: tp, Masters: 1, Spread: false,
		MaxBatch: 256, MaxPrefillTokens: 16_384,
	}
}

// NewStaticHybrid returns the "LoongServe w/o ESP (TP=t, SP=s)" ablation:
// one fixed sequence-parallel group over the whole cluster, no elasticity.
func NewStaticHybrid(sp, tp int) *ContBatch {
	return &ContBatch{
		Label: fmt.Sprintf("StaticHybrid (TP=%d, SP=%d)", tp, sp),
		SP:    sp, TP: tp, Masters: sp, Spread: true,
		MaxBatch: 256, MaxPrefillTokens: 16_384,
	}
}

// Name implements serving.Engine.
func (e *ContBatch) Name() string { return e.Label }

// Init implements serving.Engine. When Instances is empty the engine claims
// every instance in the cluster.
func (e *ContBatch) Init(env *serving.Env) error {
	e.env = env
	e.recompute = make(map[kvcache.RequestID]int)
	if err := env.Cluster.CheckIDs(); err != nil {
		return fmt.Errorf("%s: %w", e.Label, err)
	}
	if len(e.Instances) == 0 {
		for _, inst := range env.Cluster.Instances {
			e.Instances = append(e.Instances, inst.ID)
		}
	}
	if len(e.Instances) != e.SP {
		return fmt.Errorf("%s: %d instances for SP=%d", e.Label, len(e.Instances), e.SP)
	}
	for _, id := range e.Instances {
		inst := env.Cluster.Instance(id)
		if inst == nil {
			return fmt.Errorf("%s: unknown instance %d", e.Label, id)
		}
		if inst.TP != e.TP {
			return fmt.Errorf("%s: instance %d has TP=%d, engine wants %d", e.Label, id, inst.TP, e.TP)
		}
	}
	e.link = env.Cluster.GroupLink(e.Instances)
	if e.MaxBatch == 0 {
		e.MaxBatch = 256
	}
	if e.MaxPrefillTokens == 0 {
		e.MaxPrefillTokens = 16_384
	}
	e.decodeEv = env.Sim.NewEvent(e.decodeDone)
	e.prefillEv = env.Sim.NewEvent(e.prefillDone)
	return nil
}

// capacity returns the pool capacity reachable under the engine's
// placement discipline.
func (e *ContBatch) capacity() int {
	if e.Spread {
		total := 0
		for _, id := range e.Instances {
			total += e.env.Pool.Pool(id).Capacity()
		}
		return total
	}
	// Locality: bounded by one instance.
	return e.env.Pool.Pool(e.Instances[0]).Capacity()
}

// Arrive implements serving.Engine.
func (e *ContBatch) Arrive(r *serving.Request) {
	if r.Tokens()+1 > e.capacity() {
		panic(&serving.ErrOOM{System: e.Label, Req: r.ID, Tokens: r.Tokens() + 1, Limit: e.capacity()})
	}
	if e.fuseK > 0 && len(e.waiting) == 0 {
		e.fissionFused() // the arrival becomes a head the next boundary may admit
	}
	e.waiting = append(e.waiting, r)
	e.step()
}

// freeTokens returns allocatable tokens under the placement discipline.
func (e *ContBatch) freeTokens() int {
	if e.Spread {
		return e.env.Pool.TotalFree(e.Instances)
	}
	return e.env.Pool.Pool(e.Instances[0]).Free()
}

// alloc reserves n tokens for r under the placement discipline.
func (e *ContBatch) alloc(r *serving.Request, n int) error {
	if e.Spread {
		return e.env.Pool.PlaceSpread(r.ID, n, e.Instances)
	}
	return e.env.Pool.AllocRef(&r.KV, r.ID, e.Instances[0], n)
}

// step launches the next iteration if the group is idle: prefills first
// (vLLM priority), then a decode iteration over everything running.
func (e *ContBatch) step() {
	if e.busy {
		return
	}
	if e.admitPrefills() {
		e.runPrefill()
		return
	}
	if len(e.running) > 0 {
		e.runDecode()
	}
}

// admitPrefills pops FCFS waiting requests that fit in memory and under the
// token budget into the prefill scratch batch, reserving their prompt KV.
// Reports whether anything was admitted.
func (e *ContBatch) admitPrefills() bool {
	batch, lens := e.prefillBatch[:0], e.prefillLens[:0]
	total := 0
	for len(e.waiting) > 0 && len(e.running)+len(batch) < e.MaxBatch {
		r := e.waiting[0]
		plen := r.InputLen
		reserve := plen + 1 // prompt + the token the prefill generates
		if rl, ok := e.recompute[r.ID]; ok {
			// Recompute: rebuild the whole context; no fresh token.
			plen, reserve = rl, rl
		}
		if len(batch) > 0 && total+plen > e.MaxPrefillTokens {
			break
		}
		// Watermark (as in vLLM's block allocator): admission requires
		// headroom beyond the prompt so the running batch can keep growing.
		// Without it, a preempted request re-admits into a full pool and
		// the preempt/recompute cycle livelocks at saturation. With the
		// engine otherwise empty the watermark must not apply: there is no
		// running batch to protect, and a head-of-line request within one
		// watermark of pool capacity would otherwise wait forever on
		// completions that can never come (Arrive already guarantees the
		// request fits the pool outright).
		watermark := e.capacity()/100 + len(e.running)
		if len(e.running) == 0 && len(batch) == 0 {
			watermark = 0
		}
		if reserve+watermark > e.freeTokens() {
			break // FCFS head-of-line: wait for memory
		}
		if err := e.alloc(r, reserve); err != nil {
			break
		}
		e.waiting = e.waiting[1:]
		batch = append(batch, r)
		lens = append(lens, plen)
		total += plen
	}
	e.prefillBatch, e.prefillLens = batch, lens
	return len(batch) > 0
}

// runPrefill executes one prefill iteration for the admitted scratch batch.
func (e *ContBatch) runPrefill() {
	e.busy = true
	for _, r := range e.prefillBatch {
		r.Phase = serving.Prefilling
	}
	d := e.env.CM.PrefillIterTime(e.prefillLens, e.SP, e.TP, e.link)
	e.env.Sim.ScheduleAfter(e.prefillEv, d)
}

// prefillDone completes the in-flight prefill iteration.
func (e *ContBatch) prefillDone() {
	now := e.env.Sim.Now()
	for _, r := range e.prefillBatch {
		if _, preempted := e.recompute[r.ID]; preempted {
			delete(e.recompute, r.ID) // resume decoding where it left off
		} else {
			r.FirstToken = now
			r.Generated = 1
		}
		r.Phase = serving.Decoding
		e.running = append(e.running, r)
	}
	e.busy = false
	e.finishAndContinue(e.prefillBatch)
}

// runDecode executes one decode iteration for every running request.
func (e *ContBatch) runDecode() {
	// Ensure one new KV slot per request, preempting the youngest requests
	// (vLLM recompute preemption) until the batch fits.
	for len(e.running) > 0 && e.freeTokens() < len(e.running) {
		e.preemptYoungest()
	}
	if len(e.running) == 0 {
		e.step()
		return
	}
	e.decodeBatch = append(e.decodeBatch[:0], e.running...)
	sumKV := sumKVNow(e.decodeBatch)
	e.busy = true
	d := e.env.CM.DecodeIterTime(len(e.decodeBatch), sumKV, e.SP, e.TP, e.Masters, e.link)
	if e.launchFused(d, sumKV) {
		return
	}
	e.env.Sim.ScheduleAfter(e.decodeEv, d)
}

// decodeDone completes the in-flight decode iteration, or the last one of
// a fused window after materializing the rest.
func (e *ContBatch) decodeDone() {
	if e.fuseK > 0 {
		e.applyFused(e.fuseK)
		e.fuseK = 0
	} else {
		for _, r := range e.decodeBatch {
			r.Generated++
			if err := e.alloc(r, 1); err != nil {
				// Guaranteed by the pre-check; a failure means accounting
				// corruption.
				panic(fmt.Sprintf("%s: decode alloc failed: %v", e.Label, err))
			}
		}
	}
	e.busy = false
	e.finishAndContinue(e.decodeBatch)
}

// preemptYoungest evicts the most recently admitted running request,
// freeing its KV; it will re-prefill input+generated tokens (recompute).
func (e *ContBatch) preemptYoungest() {
	e.Preemptions++
	victim := e.running[len(e.running)-1]
	e.running = e.running[:len(e.running)-1]
	e.env.Pool.ReleaseRequest(victim.ID)
	e.recompute[victim.ID] = victim.KVNow()
	victim.Phase = serving.Pending
	e.waiting = append([]*serving.Request{victim}, e.waiting...)
}

// finishAndContinue retires completed requests and schedules the next
// iteration.
func (e *ContBatch) finishAndContinue(batch []*serving.Request) {
	now := e.env.Sim.Now()
	for _, r := range batch {
		if r.Phase == serving.Decoding && r.Generated >= r.OutputLen {
			r.Phase = serving.Finished
			r.Finish = now
			e.env.Pool.ReleaseRequest(r.ID)
			e.removeRunning(r)
			e.env.Complete(r)
		}
	}
	e.step()
}

func (e *ContBatch) removeRunning(r *serving.Request) {
	for i, x := range e.running {
		if x == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			return
		}
	}
}

// Replicated is the "(TP=t) x n" ablation: n independent ContBatch engines,
// one per instance, behind a round-robin Router — static replication has no
// global view, which is precisely what the ablation isolates. Requests
// longer than one replica's pool are unservable (the reason Fig 12 caps
// request length at 200K).
type Replicated struct {
	TP       int
	replicas []*ContBatch
	router   *Router
}

// NewReplicated builds the deployment; replica count is taken from the
// cluster at Init.
func NewReplicated(tp int) *Replicated { return &Replicated{TP: tp} }

// Name implements serving.Engine.
func (e *Replicated) Name() string {
	return fmt.Sprintf("Replicated (TP=%d) x %d", e.TP, len(e.replicas))
}

// Init implements serving.Engine: one replica per instance, all sharing
// the environment (same sim, same pool, same completion sink).
func (e *Replicated) Init(env *serving.Env) error {
	subs := make([]serving.Engine, 0, len(env.Cluster.Instances))
	for _, inst := range env.Cluster.Instances {
		r := &ContBatch{
			Label: fmt.Sprintf("replica-%d", inst.ID),
			SP:    1, TP: e.TP, Masters: 1, Spread: false,
			Instances: []kvcache.InstanceID{inst.ID},
			MaxBatch:  256, MaxPrefillTokens: 16_384,
		}
		e.replicas = append(e.replicas, r)
		subs = append(subs, r)
	}
	e.router = NewRouter("replicated", subs)
	e.router.Policy = fleet.NewRoundRobin()
	return e.router.Init(env)
}

// Load implements serving.LoadReporter by aggregating over replicas.
func (e *Replicated) Load() serving.LoadStats {
	var st serving.LoadStats
	for _, rep := range e.replicas {
		l := rep.Load()
		st.Queued += l.Queued
		st.Running += l.Running
		st.KVTokens += l.KVTokens
	}
	return st
}

// Arrive implements serving.Engine.
func (e *Replicated) Arrive(r *serving.Request) { e.router.Arrive(r) }

// sumKVNow returns the total resident KV of a decode batch.
func sumKVNow(batch []*serving.Request) int {
	s := 0
	for _, r := range batch {
		s += r.KVNow()
	}
	return s
}
