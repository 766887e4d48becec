package baselines

import (
	"fmt"
	"math"

	"loongserve/internal/cluster"
	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
)

// SplitFuse is the chunked-prefill baseline (SARATHI / DeepSpeed-FastGen
// "Dynamic SplitFuse" / LightLLM w/ SplitFuse): long prompts are split into
// fixed-size chunks, each fused with the current decode batch into a single
// iteration. Decoding is never stalled by a multi-second prefill, but the
// prefill itself becomes less efficient (every chunk re-reads the weights
// and pays the iteration overhead) and big chunks still inflate decode
// latency — the two effects Fig 10 shows.
type SplitFuse struct {
	Label     string
	TP        int
	ChunkSize int
	MaxBatch  int
	// MaxLen, when positive, declares requests longer than this unservable
	// (OOM): it models DeepSpeed-MII's crash beyond 32K-token requests that
	// restricted the paper's evaluation of it to ShareGPT.
	MaxLen int
	// InstanceIndex selects which cluster instance this engine drives; -1
	// (the default) requires a single-instance cluster. A router sets it
	// when deploying one engine per node.
	InstanceIndex int
	// Preemptions counts recompute evictions (instrumentation).
	Preemptions int
	inst        kvcache.InstanceID
	env         *serving.Env
	link        cluster.Link
	waiting     []*serving.Request
	prefilling  []*serving.Request // admitted, chunks still pending
	progress    map[kvcache.RequestID]int
	target      map[kvcache.RequestID]int // prompt tokens to (re)prefill
	running     []*serving.Request
	busy        bool
}

// NewSplitFuse builds the engine; chunk <= 0 selects SARATHI's ideal
// P:D-ratio chunk at Init time via SetChunkFromPD.
func NewSplitFuse(tp, chunk int) *SplitFuse {
	return &SplitFuse{
		Label:         fmt.Sprintf("SplitFuse (TP=%d)", tp),
		TP:            tp,
		ChunkSize:     chunk,
		MaxBatch:      256,
		InstanceIndex: -1,
	}
}

// Load implements serving.LoadReporter. Prefilling requests count their
// chunk progress as resident KV, decoding requests their full context.
func (e *SplitFuse) Load() serving.LoadStats {
	st := serving.LoadStats{Queued: len(e.waiting), Running: len(e.prefilling) + len(e.running)}
	for _, r := range e.prefilling {
		st.KVTokens += e.progress[r.ID]
	}
	for _, r := range e.running {
		st.KVTokens += r.KVNow()
	}
	return st
}

// SetChunkFromPD sets the chunk size from a dataset's prefill:decode token
// ratio, following SARATHI's ideal "P:D ratio" guidance: the chunk carries
// roughly the prefill work that arrives per decode token, scaled to a
// practical kernel size and clamped to [128, 8192].
func (e *SplitFuse) SetChunkFromPD(meanInput, meanOutput float64) {
	if meanOutput <= 0 {
		meanOutput = 1
	}
	pd := meanInput / meanOutput
	chunk := int(math.Round(pd * 64))
	if chunk < 128 {
		chunk = 128
	}
	if chunk > 8192 {
		chunk = 8192
	}
	e.ChunkSize = chunk
}

// Name implements serving.Engine.
func (e *SplitFuse) Name() string { return e.Label }

// Init implements serving.Engine.
func (e *SplitFuse) Init(env *serving.Env) error {
	e.env = env
	e.progress = make(map[kvcache.RequestID]int)
	e.target = make(map[kvcache.RequestID]int)
	if err := env.Cluster.CheckIDs(); err != nil {
		return fmt.Errorf("%s: %w", e.Label, err)
	}
	idx := e.InstanceIndex
	if idx < 0 {
		if len(env.Cluster.Instances) != 1 {
			return fmt.Errorf("%s: wants a single instance cluster, got %d", e.Label, len(env.Cluster.Instances))
		}
		idx = 0
	}
	if idx >= len(env.Cluster.Instances) {
		return fmt.Errorf("%s: instance index %d outside cluster of %d", e.Label, idx, len(env.Cluster.Instances))
	}
	inst := env.Cluster.Instances[idx]
	if inst.TP != e.TP {
		return fmt.Errorf("%s: instance TP=%d, engine wants %d", e.Label, inst.TP, e.TP)
	}
	e.inst = inst.ID
	e.link = env.Cluster.GroupLink([]kvcache.InstanceID{e.inst})
	if e.ChunkSize <= 0 {
		e.ChunkSize = 2048
	}
	return nil
}

// Arrive implements serving.Engine.
func (e *SplitFuse) Arrive(r *serving.Request) {
	cap := e.env.Pool.Pool(e.inst).Capacity()
	if e.MaxLen > 0 && r.Tokens() > e.MaxLen {
		cap = e.MaxLen
	}
	if r.Tokens()+1 > cap {
		panic(&serving.ErrOOM{System: e.Label, Req: r.ID, Tokens: r.Tokens() + 1, Limit: cap})
	}
	e.waiting = append(e.waiting, r)
	e.step()
}

func (e *SplitFuse) free() int { return e.env.Pool.Pool(e.inst).Free() }

// admit moves waiting requests into the prefilling set while their prompts
// fit in memory.
func (e *SplitFuse) admit() {
	for len(e.waiting) > 0 && len(e.prefilling)+len(e.running) < e.MaxBatch {
		r := e.waiting[0]
		// Fresh requests prefill their prompt and reserve one extra slot
		// for the token the prefill generates; preempted requests recompute
		// their whole context (prompt + generated so far).
		ctx := r.KVNow()
		reserve := ctx
		if r.Generated == 0 {
			reserve++
		}
		// Watermark: keep growth headroom for the running batch so
		// preempted requests cannot re-admit into a full pool and cycle.
		watermark := e.env.Pool.Pool(e.inst).Capacity()/100 + len(e.running)
		if reserve+watermark > e.free() {
			return
		}
		if err := e.env.Pool.AllocRef(&r.KV, r.ID, e.inst, reserve); err != nil {
			return
		}
		e.waiting = e.waiting[1:]
		r.Phase = serving.Prefilling
		e.prefilling = append(e.prefilling, r)
		e.progress[r.ID] = 0
		e.target[r.ID] = ctx
	}
}

// step launches the next fused iteration: one prompt chunk (FCFS across
// prefilling requests) plus every running decode.
func (e *SplitFuse) step() {
	if e.busy {
		return
	}
	e.admit()
	if len(e.prefilling) == 0 && len(e.running) == 0 {
		return
	}

	// Pick the chunk: head prefilling request's next ChunkSize tokens.
	var chunkReq *serving.Request
	chunk, ctx := 0, 0
	if len(e.prefilling) > 0 {
		chunkReq = e.prefilling[0]
		done := e.progress[chunkReq.ID]
		chunk = e.target[chunkReq.ID] - done
		if chunk > e.ChunkSize {
			chunk = e.ChunkSize
		}
		ctx = done
	}

	// Memory for decode growth: one slot per running request.
	for len(e.running) > 0 && e.free() < len(e.running) {
		e.preemptYoungest()
	}

	decodeBatch := append([]*serving.Request(nil), e.running...)
	d := e.env.CM.ChunkIterTime(chunk, ctx, len(decodeBatch), sumKVNow(decodeBatch), e.TP)
	e.busy = true
	e.env.Sim.After(d, func() {
		now := e.env.Sim.Now()
		if chunkReq != nil {
			e.progress[chunkReq.ID] += chunk
			if e.progress[chunkReq.ID] >= e.target[chunkReq.ID] {
				// Prompt complete: first token out (unless this was a
				// recompute after preemption), start decoding.
				if chunkReq.Generated == 0 {
					chunkReq.FirstToken = now
					chunkReq.Generated = 1
				}
				chunkReq.Phase = serving.Decoding
				e.prefilling = e.prefilling[1:]
				delete(e.progress, chunkReq.ID)
				delete(e.target, chunkReq.ID)
				e.running = append(e.running, chunkReq)
			}
		}
		for _, r := range decodeBatch {
			r.Generated++
			if err := e.env.Pool.AllocRef(&r.KV, r.ID, e.inst, 1); err != nil {
				panic(fmt.Sprintf("%s: decode alloc failed: %v", e.Label, err))
			}
		}
		e.busy = false
		for _, r := range decodeBatch {
			if r.Generated >= r.OutputLen {
				r.Phase = serving.Finished
				r.Finish = now
				e.env.Pool.ReleaseRequest(r.ID)
				e.removeRunning(r)
				e.env.Complete(r)
			}
		}
		e.step()
	})
}

// preemptYoungest evicts the most recently started decode; its whole
// context (prompt + generated tokens) re-prefills chunk by chunk later
// (recompute preemption). Request fields stay intact for metrics.
//
// The fast path keeps the victim in the prefilling set with its context
// re-reserved, but only under the same watermark admit() enforces:
// re-reserving unconditionally would leave the pool exactly as full as
// before the preemption, the decode loop would preempt the next victim to
// no effect, and the engine would recompute the same requests forever
// (found by TestSplitFusePreemptionRecovers on a memory-starved cluster).
func (e *SplitFuse) preemptYoungest() {
	e.Preemptions++
	victim := e.running[len(e.running)-1]
	e.running = e.running[:len(e.running)-1]
	e.env.Pool.ReleaseRequest(victim.ID)
	ctx := victim.KVNow()
	victim.Phase = serving.Prefilling
	e.progress[victim.ID] = 0
	e.target[victim.ID] = ctx
	watermark := e.env.Pool.Pool(e.inst).Capacity()/100 + len(e.running)
	if ctx+watermark > e.free() || e.env.Pool.AllocRef(&victim.KV, victim.ID, e.inst, ctx) != nil {
		// No headroom for an in-place recompute: fully requeue; admit()
		// re-reserves once the running batch's growth has room.
		delete(e.progress, victim.ID)
		delete(e.target, victim.ID)
		victim.Phase = serving.Pending
		e.waiting = append([]*serving.Request{victim}, e.waiting...)
		return
	}
	e.prefilling = append(e.prefilling, victim)
}

func (e *SplitFuse) removeRunning(r *serving.Request) {
	for i, x := range e.running {
		if x == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			return
		}
	}
}
