package baselines

import (
	"fmt"

	"loongserve/internal/cluster"
	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
)

// DistServe is the prefill-decoding disaggregation baseline (§2.2, §7.1):
// the cluster is split into a prefill instance group and a decode instance
// group (four GPUs each in the paper's setup, DoP=4 per phase). Every
// request prefills in the first pool, then its whole KV cache reactively
// migrates over the interconnect into the second pool before decoding.
//
// Its failure modes in Fig 10 all reproduce here structurally: each phase
// only has half the GPUs (slow prefill on L-Eval, starved decode on
// ShareGPT), migration adds latency proportional to context length, and a
// request longer than one phase pool's capacity is an immediate OOM
// (LV-Eval and Mixed).
type DistServe struct {
	Label            string
	TP               int // per-phase tensor parallelism
	MaxBatch         int
	MaxPrefillTokens int

	env          *serving.Env
	prefillInst  kvcache.InstanceID
	decodeInst   kvcache.InstanceID
	migrateLink  cluster.Link
	waiting      []*serving.Request
	awaitMigrate []*serving.Request
	running      []*serving.Request
	recompute    map[kvcache.RequestID]int
	busyP, busyD bool

	// Preemptions counts recompute evictions (instrumentation).
	Preemptions int
}

// NewDistServe builds the baseline for a two-instance cluster (prefill
// pool, decode pool).
func NewDistServe(tp int) *DistServe {
	return &DistServe{
		Label:    fmt.Sprintf("DistServe (P/D TP=%d)", tp),
		TP:       tp,
		MaxBatch: 256, MaxPrefillTokens: 16_384,
	}
}

// Name implements serving.Engine.
func (e *DistServe) Name() string { return e.Label }

// Load implements serving.LoadReporter. Requests awaiting migration to
// the decode pool count as running: their KV is resident on the prefill
// instance.
func (e *DistServe) Load() serving.LoadStats {
	st := serving.LoadStats{Queued: len(e.waiting), Running: len(e.awaitMigrate) + len(e.running)}
	for _, r := range e.awaitMigrate {
		st.KVTokens += r.KVNow()
	}
	for _, r := range e.running {
		st.KVTokens += r.KVNow()
	}
	return st
}

// Init implements serving.Engine.
func (e *DistServe) Init(env *serving.Env) error {
	e.env = env
	e.recompute = make(map[kvcache.RequestID]int)
	if len(env.Cluster.Instances) != 2 {
		return fmt.Errorf("%s: wants exactly 2 instances (prefill pool, decode pool), got %d",
			e.Label, len(env.Cluster.Instances))
	}
	if err := env.Cluster.CheckIDs(); err != nil {
		return fmt.Errorf("%s: %w", e.Label, err)
	}
	for _, inst := range env.Cluster.Instances {
		if inst.TP != e.TP {
			return fmt.Errorf("%s: instance %d has TP=%d, engine wants %d", e.Label, inst.ID, inst.TP, e.TP)
		}
	}
	e.prefillInst = env.Cluster.Instances[0].ID
	e.decodeInst = env.Cluster.Instances[1].ID
	e.migrateLink = env.Cluster.LinkBetween(e.prefillInst, e.decodeInst)
	return nil
}

// Arrive implements serving.Engine. Requests that cannot ever fit one of
// the phase pools abort the run — the paper's OOM rows.
func (e *DistServe) Arrive(r *serving.Request) {
	capP := e.env.Pool.Pool(e.prefillInst).Capacity()
	capD := e.env.Pool.Pool(e.decodeInst).Capacity()
	if r.InputLen+1 > capP {
		panic(&serving.ErrOOM{System: e.Label, Req: r.ID, Tokens: r.InputLen + 1, Limit: capP})
	}
	if r.Tokens()+1 > capD {
		panic(&serving.ErrOOM{System: e.Label, Req: r.ID, Tokens: r.Tokens() + 1, Limit: capD})
	}
	e.waiting = append(e.waiting, r)
	e.stepPrefill()
}

// stepPrefill batches FCFS waiting requests into one prefill iteration on
// the prefill pool.
func (e *DistServe) stepPrefill() {
	if e.busyP {
		return
	}
	poolP := e.env.Pool.Pool(e.prefillInst)
	var batch []*serving.Request
	var lens []int
	total := 0
	for len(e.waiting) > 0 {
		r := e.waiting[0]
		plen := r.InputLen
		reserve := plen + 1
		if rl, ok := e.recompute[r.ID]; ok {
			plen, reserve = rl, rl
		}
		if len(batch) > 0 && total+plen > e.MaxPrefillTokens {
			break
		}
		// Watermark on the prefill pool: migrations need the request to fit
		// the decode pool too; keep headroom so preempted requests cannot
		// re-admit into a saturated pipeline and cycle.
		watermark := poolP.Capacity() / 100
		if reserve+watermark > poolP.Free() {
			break
		}
		if err := e.env.Pool.AllocRef(&r.KV, r.ID, e.prefillInst, reserve); err != nil {
			break
		}
		e.waiting = e.waiting[1:]
		batch = append(batch, r)
		lens = append(lens, plen)
		total += plen
	}
	if len(batch) == 0 {
		return
	}
	for _, r := range batch {
		r.Phase = serving.Prefilling
	}
	e.busyP = true
	d := e.env.CM.PrefillIterTime(lens, 1, e.TP, e.migrateLink)
	e.env.Sim.After(d, func() {
		now := e.env.Sim.Now()
		for _, r := range batch {
			if _, preempted := e.recompute[r.ID]; preempted {
				delete(e.recompute, r.ID)
			} else {
				r.FirstToken = now
				r.Generated = 1
			}
			e.awaitMigrate = append(e.awaitMigrate, r)
		}
		e.busyP = false
		e.tryMigrate()
		e.stepPrefill()
	})
}

// tryMigrate starts KV migrations for prefill-complete requests as decode
// pool space allows. Migrations proceed concurrently on dedicated streams;
// a request occupies *both* pools while in flight — the double-residency
// cost of reactive migration.
func (e *DistServe) tryMigrate() {
	poolD := e.env.Pool.Pool(e.decodeInst)
	for len(e.awaitMigrate) > 0 {
		r := e.awaitMigrate[0]
		need := r.KVNow()
		if need > poolD.Free() {
			return // head-of-line: decode pool full
		}
		if err := e.env.Pool.AllocRef(&r.KV, r.ID, e.decodeInst, need); err != nil {
			return
		}
		e.awaitMigrate = e.awaitMigrate[1:]
		d := e.env.CM.ReactiveMigrationTime(need, e.migrateLink)
		e.env.Sim.After(d, func() {
			// Release the prefill-side copy.
			held := e.env.Pool.HeldOn(r.ID, e.prefillInst)
			if held > 0 {
				if err := e.env.Pool.ReleaseAt(r.ID, e.prefillInst, held); err != nil {
					panic(fmt.Sprintf("%s: migration release failed: %v", e.Label, err))
				}
			}
			r.Phase = serving.Decoding
			e.running = append(e.running, r)
			e.stepDecode()
			// Freed prefill memory may unblock admission.
			e.stepPrefill()
		})
	}
}

// stepDecode runs continuous batching on the decode pool.
func (e *DistServe) stepDecode() {
	if e.busyD || len(e.running) == 0 {
		return
	}
	poolD := e.env.Pool.Pool(e.decodeInst)
	for len(e.running) > 0 && poolD.Free() < len(e.running) {
		e.preemptYoungest()
	}
	if len(e.running) == 0 {
		return
	}
	batch := append([]*serving.Request(nil), e.running...)
	if len(batch) > e.MaxBatch {
		batch = batch[:e.MaxBatch]
	}
	// Reserve the batch's growth now: migrations land on the decode pool
	// concurrently with this iteration and must not steal these slots.
	for _, r := range batch {
		if err := e.env.Pool.AllocRef(&r.KV, r.ID, e.decodeInst, 1); err != nil {
			panic(fmt.Sprintf("%s: decode growth reservation failed: %v", e.Label, err))
		}
	}
	e.busyD = true
	d := e.env.CM.DecodeIterTime(len(batch), sumKVNow(batch), 1, e.TP, 1, e.migrateLink)
	e.env.Sim.After(d, func() {
		now := e.env.Sim.Now()
		for _, r := range batch {
			r.Generated++
		}
		e.busyD = false
		for _, r := range batch {
			if r.Generated >= r.OutputLen {
				r.Phase = serving.Finished
				r.Finish = now
				e.env.Pool.ReleaseRequest(r.ID)
				e.removeRunning(r)
				e.env.Complete(r)
			}
		}
		e.tryMigrate()
		e.stepDecode()
		// A preempted request may be waiting on the prefill side with no
		// future arrival to wake the prefill pool: nudge it here too.
		e.stepPrefill()
	})
}

// preemptYoungest sends the most recent decode back through the prefill
// pool (recompute preemption across the disaggregation boundary).
func (e *DistServe) preemptYoungest() {
	e.Preemptions++
	victim := e.running[len(e.running)-1]
	e.running = e.running[:len(e.running)-1]
	e.env.Pool.ReleaseRequest(victim.ID)
	e.recompute[victim.ID] = victim.KVNow()
	victim.Phase = serving.Pending
	e.waiting = append([]*serving.Request{victim}, e.waiting...)
}

func (e *DistServe) removeRunning(r *serving.Request) {
	for i, x := range e.running {
		if x == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			return
		}
	}
}
