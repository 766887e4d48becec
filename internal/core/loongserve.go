// Package core implements LoongServe itself: elastic instances organized
// into per-iteration parallel groups by a global manager running the
// paper's four-step scheduling algorithm (§5) on top of the zero-overhead
// elastic scaling mechanisms of §4.
//
// Engine state mirrors Fig 5: a pending queue, a set of disjoint parallel
// groups (each either executing a prefill iteration or serving a decoding
// batch), the unified distributed KV cache pool (serving.Env.Pool), and the
// scaling information base (SIB) whose fitted analytical models — not the
// ground-truth cost model — drive every scheduling decision, exactly as in
// the real system.
//
// Elastic mechanisms as implemented here:
//
//   - Proactive scale-down (§4.1): when a prefill batch is launched the
//     manager already knows the retention subset S of its group; KV is
//     reserved on S up front and the group shrinks to S the moment the
//     prefill iteration completes, at bookkeeping-only cost.
//   - Elastic scale-up (§4.2): when a decoding group runs out of KV slots
//     on its master instances, or its batch crosses the compute-bound
//     threshold, an idle instance joins the group and mastership
//     rebalances; no existing KV moves because newly generated tokens land
//     on their (possibly new) master.
//   - Multi-master decoding: mastership is a per-request label that moves
//     freely between group members; the cost model charges dense-layer
//     time divided by the number of distinct masters. The label is dense
//     group state — a masters slice aligned with the decode batch, a
//     request count per instance and the distinct-master count, all
//     written by one method — so the steady decode step reads a request's
//     master by index and the master count as a field, with no map
//     operation and no allocation.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/obs"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// Options tune the engine; zero value = paper defaults.
type Options struct {
	// DisableScaleUp turns off decode-phase elastic scale-up (the Fig 13
	// ablation).
	DisableScaleUp bool
	// DisableDPBatching replaces the Eq 5 dynamic program with a greedy
	// single batch over all allocated instances (ablation).
	DisableDPBatching bool
	// UseQIBatching solves Eq 5 with the quadrangle-inequality
	// split-point-monotonicity variant (Eq 6, §5.3) instead of the naive
	// DP. Both return the same optimum; this trades the O(n²m²) loops for
	// O(n·m²·log n) divide-and-conquer.
	UseQIBatching bool
	// DisableBorrowing turns off the Eq 1-2 mechanism that lets a prefill
	// batch borrow a momentarily idle decoding group's instances.
	DisableBorrowing bool
}

const (
	// decodeHeadroom is the per-request KV growth margin (tokens) used when
	// choosing the post-prefill retention subset.
	decodeHeadroom = 128
	// profileJitter is the SIB profiling noise.
	profileJitter = 0.01
)

// Engine is the LoongServe serving system.
type Engine struct {
	Label string
	TP    int
	Opts  Options

	env *serving.Env
	sib *costmodel.SIB

	pending   []*serving.Request
	recompute map[kvcache.RequestID]int
	byInst    []*group // owning group per instance, indexed by InstanceID
	nextGID   int

	// groupList is the registry of live groups, in ascending-id order,
	// maintained incrementally on create/retire so the scheduler never
	// re-sorts.
	groupList []*group

	// Per-SP fitted model tables, built once at Init from the SIB: the
	// scheduler consults coefficients on every dispatch decision and in the
	// inner loop of the Eq 5 DP, so the map-and-fit lookup is hoisted to an
	// index. Index sp ∈ [1, cluster size]; TP is the engine's.
	spPrefill   []costmodel.Coeffs
	spPrefillOK []bool
	spDecode    []costmodel.DecodeCoeffs
	spDecodeOK  []bool

	// Hot-path scratch, reused across scheduling rounds.
	schedScratch []*group                      // snapshot for mutation-safe iteration
	mergeScratch []*group                      // considerMerges candidates
	idleScratch  []kvcache.InstanceID          // idleInstances result buffer
	orderScratch []kvcache.InstanceID          // rebalanceMasters instance order
	inUse        []bool                        // allInUse verdicts, indexed by InstanceID
	markPlaced   func(kvcache.InstanceID, int) // bound EachPlacement visitor for allInUse
	pre          prefillScratch                // dispatch, allocation and piggyback buffers
	dp           dpScratch                     // Eq 5 DP inputs and matrices
	scheduleFn   func()                        // bound e.schedule, for After(0, ...)

	// sink receives the Fig 6 group lifecycle as obs events attributed to
	// replica (AttachObsSink); nil when nothing is attached.
	sink    obs.Sink
	replica int

	// decodeBS is the SIB's compute-bound decode batch size, clamped to at
	// least 1 at Init; the decode scale-up and fusion checks read it on
	// every iteration.
	decodeBS int

	// Decode-iteration fusion (fuse.go), on unless SetDecodeFusion(false).
	// At most one group can satisfy the fusion conditions at a time, so the
	// live window's state is the engine's: fusedGroup is the group it
	// covers (nil when none is live), fusedEnds the absolute end time of
	// each iteration in the window and fusedDone the count already
	// materialized. The buffer is reused across windows.
	fuseDecode bool
	fusedGroup *group
	fusedEnds  []simevent.Time
	fusedDone  int
	fusion     DecodeFusionStats

	// Running averages for the Eq 2 gain estimate.
	decodeLatSum   float64 // seconds spent in decode by finished requests
	decodeLatCount int

	// Instrumentation for the ablation figures.
	ScaleUps       []simevent.Time // when each elastic scale-up fired (Fig 13b)
	ScaleDowns     int             // prefill proactive scale-downs
	Preemptions    int             // decode evictions (recompute)
	Borrows        int             // Eq 1-2 instance borrowings
	Migrations     int             // Eq 3-4 instance evacuations
	MigratedTokens int             // KV tokens moved by evacuations
	MaxDecodeBS    int             // largest decode batch observed
	MaxGroups      int             // most concurrent groups observed
}

type groupPhase int

const (
	phasePrefill groupPhase = iota
	phaseDecode
)

// group is one ESP parallel group (a disjoint set of elastic instances
// executing one batch).
type group struct {
	id        int
	phase     groupPhase
	instances []kvcache.InstanceID
	running   bool

	// Prefill state. prefillEnd is when the prefill iteration completes,
	// which bounds any fused decode window beside it.
	batch      []*serving.Request
	lens       []int
	retain     []kvcache.InstanceID // proactive scale-down targets
	prefillEnd simevent.Time

	// Decode state. masters[i] is the instance that receives reqs[i]'s new
	// KV; mastered counts requests per master, indexed by InstanceID, and
	// distinct counts the instances with a non-zero entry. setMaster is
	// their only writer.
	reqs     []*serving.Request
	masters  []kvcache.InstanceID
	mastered []int
	distinct int

	// Decode-iteration plumbing: iterN is the batch size of the in-flight
	// iteration. A running group's reqs only grow at the tail (a finished
	// prefill joining mid-flight; removals happen while the group is idle),
	// so reqs[:iterN] are exactly the requests that receive this
	// iteration's token. decodeEv is the group's reusable completion event,
	// so steady-state decoding schedules without allocating.
	iterN    int
	decodeEv *simevent.Event

	// Borrowed instances (Eq 1-2): returned to their decoding group after
	// this prefill iteration.
	borrowedFrom *group
}

// noMaster marks a request slot with no master instance.
const noMaster kvcache.InstanceID = -1

// setMaster is the single writer of mastership: it makes m the master of
// reqs[i] (noMaster clears it) and keeps mastered and distinct in step
// with masters.
func (g *group) setMaster(i int, m kvcache.InstanceID) {
	if old := g.masters[i]; old != noMaster {
		if g.mastered[old]--; g.mastered[old] == 0 {
			g.distinct--
		}
	}
	g.masters[i] = m
	if m != noMaster {
		if g.mastered[m]++; g.mastered[m] == 1 {
			g.distinct++
		}
	}
}

// addReq appends r to the decode batch, mastered on m.
func (g *group) addReq(r *serving.Request, m kvcache.InstanceID) {
	g.reqs = append(g.reqs, r)
	g.masters = append(g.masters, noMaster)
	g.setMaster(len(g.masters)-1, m)
}

// dropReq removes reqs[i] from the decode batch, keeping the order of the
// rest.
func (g *group) dropReq(i int) {
	g.setMaster(i, noMaster)
	g.reqs = slices.Delete(g.reqs, i, i+1)
	g.masters = slices.Delete(g.masters, i, i+1)
}

// New returns a LoongServe engine for instances of the given tensor
// parallelism.
func New(tp int, opts Options) *Engine {
	return &Engine{
		Label:      fmt.Sprintf("LoongServe (TP=%d)", tp),
		TP:         tp,
		Opts:       opts,
		fuseDecode: true,
	}
}

// Name implements serving.Engine.
func (e *Engine) Name() string { return e.Label }

// Init implements serving.Engine: binds the environment and builds the SIB
// by profiling every strategy sp in 1..numInstances, as the real system's
// profiling tools do offline.
func (e *Engine) Init(env *serving.Env) error {
	e.env = env
	e.recompute = make(map[kvcache.RequestID]int)
	n := len(env.Cluster.Instances)
	if n == 0 {
		return fmt.Errorf("%s: empty cluster", e.Label)
	}
	for _, inst := range env.Cluster.Instances {
		if inst.TP != e.TP {
			return fmt.Errorf("%s: instance %d has TP=%d, engine wants %d", e.Label, inst.ID, inst.TP, e.TP)
		}
	}
	if err := env.Cluster.CheckIDs(); err != nil {
		return fmt.Errorf("%s: %w", e.Label, err)
	}
	e.byInst = make([]*group, n)
	e.inUse = make([]bool, n)
	e.markPlaced = func(id kvcache.InstanceID, tokens int) {
		if tokens > 0 {
			e.inUse[id] = true
		}
	}
	e.sib = costmodel.NewSIB()
	prof := &costmodel.Profiler{CM: env.CM, Link: e.clusterLink(), Jitter: profileJitter, Seed: 1}
	maxLen := env.CM.M.MaxContext
	if maxLen > 600_000 {
		maxLen = 600_000
	}
	grid := costmodel.DefaultPrefillGrid(maxLen)
	for sp := 1; sp <= n; sp++ {
		st := costmodel.Strategy{SP: sp, TP: e.TP}
		prof.ProfilePrefill(e.sib, st, grid)
		prof.ProfileDecode(e.sib, st, sp)
	}
	prof.CalibrateThresholds(e.sib, costmodel.Strategy{SP: 1, TP: e.TP})
	e.decodeBS = max(e.sib.DecodeBSThreshold, 1)

	// Fit every strategy now and build the per-SP tables the scheduler
	// indexes at decision time (the SIB itself caches fits, but the map
	// lookup is too slow for the DP inner loop).
	e.spPrefill = make([]costmodel.Coeffs, n+1)
	e.spPrefillOK = make([]bool, n+1)
	e.spDecode = make([]costmodel.DecodeCoeffs, n+1)
	e.spDecodeOK = make([]bool, n+1)
	for sp := 1; sp <= n; sp++ {
		st := costmodel.Strategy{SP: sp, TP: e.TP}
		if c, err := e.sib.PrefillCoeffs(st); err == nil {
			e.spPrefill[sp], e.spPrefillOK[sp] = c, true
		}
		if c, err := e.sib.DecodeCoeffs(st); err == nil {
			e.spDecode[sp], e.spDecodeOK[sp] = c, true
		}
	}
	e.scheduleFn = e.schedule
	return nil
}

// clusterLink returns the worst-case link across the whole cluster, used
// for profiling (groups are costed with their actual GroupLink at run
// time).
func (e *Engine) clusterLink() cluster.Link {
	ids := make([]kvcache.InstanceID, 0, len(e.env.Cluster.Instances))
	for _, inst := range e.env.Cluster.Instances {
		ids = append(ids, inst.ID)
	}
	return e.env.Cluster.GroupLink(ids)
}

// SIB exposes the fitted scaling information base (read-only use).
func (e *Engine) SIB() *costmodel.SIB { return e.sib }

// CheckDrained verifies the engine reached a clean terminal state: no
// pending requests, no live groups, every KV slot returned, and the pool's
// internal accounting consistent. Tests call it after a full trace run.
func (e *Engine) CheckDrained() error {
	if len(e.pending) != 0 {
		return fmt.Errorf("%s: %d requests still pending", e.Label, len(e.pending))
	}
	if len(e.groupList) != 0 {
		return fmt.Errorf("%s: %d groups still live", e.Label, len(e.groupList))
	}
	if used := e.env.Pool.TotalUsed(); used != 0 {
		return fmt.Errorf("%s: %d KV slots leaked", e.Label, used)
	}
	if e.fusedGroup != nil {
		return fmt.Errorf("%s: fused decode window still live", e.Label)
	}
	return e.env.Pool.CheckInvariants()
}

// Capability implements serving.CapabilityReporter (valid after Init):
// elastic sequence parallelism shards one sequence's KV across instances,
// so the envelope is the whole distributed pool — the long-context headroom
// that distinguishes a LoongServe replica in a heterogeneous fleet.
func (e *Engine) Capability() serving.Capability {
	return serving.Capability{MaxSeqTokens: e.env.Pool.TotalCapacity()}
}

// Load implements serving.LoadReporter: pending requests are queued,
// requests inside any parallel group (prefill batch or decode set) are
// running, and KVTokens counts their resident KV. A fused decode window
// materializes its elapsed iterations first, so external readers always
// see the exact unfused state.
func (e *Engine) Load() serving.LoadStats {
	e.syncFused()
	st := serving.LoadStats{Queued: len(e.pending)}
	for _, g := range e.groupList {
		for _, r := range g.batch {
			st.Running++
			st.KVTokens += r.KVNow()
		}
		for _, r := range g.reqs {
			st.Running++
			st.KVTokens += r.KVNow()
		}
	}
	return st
}

// AttachObsSink implements serving.Traceable: the engine's elastic events
// stream into sink as obs events attributed to replica. A nil sink
// detaches.
func (e *Engine) AttachObsSink(sink obs.Sink, replica int) {
	e.sink, e.replica = sink, replica
}

// emit sends one elastic event of group g to the attached sink, carrying
// the group's degree of parallelism (A) and batch size (B) as scalars so
// that emitting allocates nothing. Without a sink it is one nil check.
func (e *Engine) emit(kind obs.Kind, g *group, tokens int) {
	if e.sink == nil {
		return
	}
	batch := len(g.reqs)
	if g.phase == phasePrefill {
		batch = len(g.batch)
	}
	e.sink.Emit(obs.Event{At: e.env.Sim.Now(), Kind: kind, Replica: e.replica, Group: g.id,
		Tokens: tokens, A: int64(len(g.instances)), B: int64(batch)})
}

// Arrive implements serving.Engine.
func (e *Engine) Arrive(r *serving.Request) {
	if r.Tokens()+1 > e.env.Pool.TotalCapacity() {
		panic(&serving.ErrOOM{System: e.Label, Req: r.ID, Tokens: r.Tokens() + 1, Limit: e.env.Pool.TotalCapacity()})
	}
	e.fissionFused() // an arrival breaks the fused window's stability proof
	e.pending = append(e.pending, r)
	e.schedule()
}

// idleInstances returns instances in no group, most-free first, in a
// scratch buffer valid until the next call. Callers that retain an instance
// set (group membership) copy what they keep.
func (e *Engine) idleInstances() []kvcache.InstanceID {
	ids := e.idleScratch[:0]
	for _, inst := range e.env.Cluster.Instances {
		if e.byInst[inst.ID] == nil {
			ids = append(ids, inst.ID)
		}
	}
	slices.SortFunc(ids, e.mostFreeFirst)
	e.idleScratch = ids
	return ids
}

// mostFreeFirst orders instances by free KV slots, most first, ties by ID.
// It is a total order, so every sort that uses it has one result.
func (e *Engine) mostFreeFirst(a, b kvcache.InstanceID) int {
	if fa, fb := e.env.Pool.Pool(a).Free(), e.env.Pool.Pool(b).Free(); fa != fb {
		return cmp.Compare(fb, fa)
	}
	return cmp.Compare(a, b)
}

// prefillLen returns the tokens request r must prefill (full context after
// a preemption).
func (e *Engine) prefillLen(r *serving.Request) int {
	if rl, ok := e.recompute[r.ID]; ok {
		return rl
	}
	return r.InputLen
}

// reserveLen returns the KV slots to reserve at prefill launch.
func (e *Engine) reserveLen(r *serving.Request) int {
	if rl, ok := e.recompute[r.ID]; ok {
		return rl
	}
	return r.InputLen + 1 // prompt + the first generated token
}

// schedule runs the four-step scheduling algorithm (§5). It is invoked on
// every arrival and on every iteration completion; all decisions are made
// with SIB-fitted models, never with ground truth.
func (e *Engine) schedule() {
	// Step 4's compute-bound scale-up gets first claim on idle instances:
	// a decoding batch past the compute threshold gains more from an extra
	// master than a new prefill batch does from an extra ring member
	// (§5.4), and prefills can still piggyback on the grown group.
	for _, g := range e.sortedGroups() {
		if g.phase == phaseDecode && !g.running && len(g.reqs) > 0 {
			e.considerComputeScaleUp(g)
		}
	}
	// Steps 1-3 (dispatch, allocation, batching) may run several rounds:
	// the tipping point caps one batch, but leftover idle instances should
	// not sit unused while requests wait.
	for round := 0; round < 8; round++ {
		if !e.scheduleOnePrefillRound() {
			break
		}
	}
	// Step 4 happens inside completion handlers (scale-down) and here for
	// decoding groups (merging and scale-up), then idle decoding groups
	// launch their next iteration. launchDecode can dissolve a group, which
	// mutates the live list, so this loop walks a scratch snapshot.
	e.considerMerges()
	snap := append(e.schedScratch[:0], e.groupList...)
	e.schedScratch = snap
	for _, g := range snap {
		if g.phase == phaseDecode && !g.running {
			e.launchDecode(g)
		}
	}
}

// sortedGroups returns the live id-ordered group list, maintained
// incrementally by addGroup/removeGroup (ids are assigned monotonically, so
// creation appends in order and retirement is a single ordered removal —
// no call site re-sorts). The returned slice is the engine's own: callers
// may read it freely, including nested reads, but must not create or
// retire groups while ranging over it; loops that do (schedule's decode
// launcher) range over a snapshot instead.
func (e *Engine) sortedGroups() []*group {
	return e.groupList
}

// addGroup registers a newly created group.
func (e *Engine) addGroup(g *group) {
	e.groupList = append(e.groupList, g)
}

// removeGroup retires a group from the ordered list.
func (e *Engine) removeGroup(g *group) {
	list := e.groupList
	i := sort.Search(len(list), func(k int) bool { return list[k].id >= g.id })
	if i < len(list) && list[i] == g {
		copy(list[i:], list[i+1:])
		list[len(list)-1] = nil
		e.groupList = list[:len(list)-1]
	}
}

// launchPrefill starts one prefill iteration for a planned batch. delay is
// the Eq 3-4 migration time that must elapse before compute starts.
func (e *Engine) launchPrefill(reqs []*serving.Request, lens []int, insts []kvcache.InstanceID, borrowed *group, delay time.Duration) {
	g := &group{
		id:        e.nextGID,
		phase:     phasePrefill,
		instances: insts,
		running:   true,
		batch:     reqs,
		lens:      lens,
		borrowedFrom: func() *group {
			if borrowed != nil {
				e.Borrows++
			}
			return borrowed
		}(),
	}
	e.nextGID++
	e.addGroup(g)
	for _, id := range insts {
		if borrowed == nil || !instIn(borrowed.instances, id) {
			e.byInst[id] = g
		}
	}

	// Step 4 for this batch: the retention subset (proactive scale-down
	// plan) is fixed now, and KV is reserved on it immediately so no other
	// decision can oversubscribe those slots. In the piggyback path the
	// donor group's instances are legitimate retention targets — that is
	// the whole point of Eq 1-2: use the decoding group's unused slots.
	retain := e.chooseRetention(reqs, insts)
	g.retain = retain
	for _, r := range reqs {
		r.Phase = serving.Prefilling
		if err := e.env.Pool.PlaceSpread(r.ID, e.reserveLen(r), retain); err != nil {
			panic(fmt.Sprintf("%s: prefill reservation failed after planning: %v", e.Label, err))
		}
	}

	kind := obs.KindPrefillStart
	if borrowed != nil {
		kind = obs.KindPiggyback
	}
	total := 0
	for _, l := range lens {
		total += l
	}
	e.emit(kind, g, total)

	link := e.env.Cluster.GroupLink(insts)
	d := delay + e.env.CM.PrefillIterTime(lens, len(insts), e.TP, link)
	if len(retain) < len(insts) {
		d += e.env.CM.ScaleDownOverhead()
	}
	g.prefillEnd = e.env.Sim.Now().Add(d)
	e.env.Sim.After(d, func() { e.finishPrefill(g) })
}

// chooseRetention picks the minimal most-free subset of the batch's own
// instances whose free slots cover the batch's KV plus growth headroom —
// "scale down the DoP to the minimum DoP that the key-value tensors of
// requests can fit" (§5.4).
func (e *Engine) chooseRetention(reqs []*serving.Request, insts []kvcache.InstanceID) []kvcache.InstanceID {
	need := len(reqs) * decodeHeadroom
	for _, r := range reqs {
		need += e.reserveLen(r)
	}
	order := append([]kvcache.InstanceID(nil), insts...)
	slices.SortFunc(order, e.mostFreeFirst)
	have := 0
	for i, id := range order {
		have += e.env.Pool.Pool(id).Free()
		if have >= need {
			return order[:i+1]
		}
	}
	return order // take everything; headroom pressure handled by scale-up
}

// finishPrefill transitions a prefill group into a decoding group on its
// retention subset (the proactive scale-down), or — in the piggyback path —
// joins the new requests into the donor decoding batch.
func (e *Engine) finishPrefill(g *group) {
	e.fissionFused() // the completion can join, merge or create a decoding group
	now := e.env.Sim.Now()
	for _, r := range g.batch {
		if _, preempted := e.recompute[r.ID]; preempted {
			delete(e.recompute, r.ID)
		} else {
			r.FirstToken = now
			r.Generated = 1
		}
		r.Phase = serving.Decoding
	}
	if len(g.retain) < len(g.instances) {
		e.ScaleDowns++
		e.emit(obs.KindScaleDown, g, len(g.retain))
	}

	if donor := g.borrowedFrom; donor != nil {
		donor.running = false // resume the paused group
		e.joinGroup(g, donor)
		e.schedule()
		return
	}

	// Scale down: release non-retained instances.
	for _, id := range g.instances {
		if !instIn(g.retain, id) {
			e.byInst[id] = nil
		}
	}
	g.instances = g.retain
	g.phase = phaseDecode
	g.running = false

	// Consolidate: if an existing decoding group can absorb this batch
	// without the union growing past half the cluster, join it. Fewer,
	// larger decoding groups amortize per-iteration overhead and leave
	// more instances for the prefill phase; ESP makes the join free (the
	// new requests' KV stays where the retention plan put it, mastership
	// is only a label).
	if target := e.consolidationTarget(g); target != nil {
		e.joinGroup(g, target)
		e.schedule()
		return
	}

	// Balanced master assignment: "the number of newly key-value tensors
	// generated by each master is set to as uniform as possible" (§5.4).
	g.reqs = make([]*serving.Request, 0, len(g.batch))
	g.masters = make([]kvcache.InstanceID, 0, len(g.batch))
	g.mastered = make([]int, len(e.byInst))
	for _, r := range g.batch {
		g.addReq(r, noMaster)
	}
	g.batch, g.lens, g.retain = nil, nil, nil
	e.rebalanceMasters(g, e.desiredMasters(g))

	// Requests whose output was a single token are already done.
	e.retireFinished(g)
	if len(g.reqs) == 0 {
		e.dissolve(g)
	}
	e.schedule()
}

// consolidationTarget picks the decoding group (largest batch first) that
// can absorb g. The union stays within half the cluster so the prefill
// phase keeps instances; growth past that happens only through the
// explicit scale-up paths. With scale-up disabled a join must not grow the
// target group at all — growing a decoding group IS the elastic scale-up
// being ablated.
func (e *Engine) consolidationTarget(g *group) *group {
	m := len(e.env.Cluster.Instances)
	maxUnion := (m + 1) / 2
	var best *group
	for _, cand := range e.sortedGroups() {
		if cand == g || cand.phase != phaseDecode || len(cand.reqs) == 0 {
			continue
		}
		extra := countNotIn(g.instances, cand.instances)
		if e.Opts.DisableScaleUp && extra > 0 {
			continue
		}
		if len(cand.instances)+extra > maxUnion {
			continue
		}
		if best == nil || len(cand.reqs) > len(best.reqs) {
			best = cand
		}
	}
	return best
}

// joinGroup merges a completed prefill (requests in g.batch, KV on
// g.retain) into an existing decoding group: retained instances join the
// group (an elastic scale-up when the group grows), non-retained ones go
// back to idle, and the new requests join the batch with mastership on
// their retention instances.
func (e *Engine) joinGroup(g *group, target *group) {
	for _, id := range g.instances {
		if e.byInst[id] == g {
			e.byInst[id] = nil // idle-origin instance, not retained
		}
	}
	for _, id := range g.retain {
		if !instIn(target.instances, id) {
			target.instances = append(target.instances, id)
			e.ScaleUps = append(e.ScaleUps, e.env.Sim.Now())
		}
		e.byInst[id] = target
	}
	for i, r := range g.batch {
		if r.Generated >= r.OutputLen {
			e.finishRequest(r)
			continue
		}
		target.addReq(r, g.retain[i%len(g.retain)])
	}
	e.removeGroup(g)
	e.emit(obs.KindJoin, target, 0)
}

// finishRequest retires one completed request.
func (e *Engine) finishRequest(r *serving.Request) {
	r.Phase = serving.Finished
	r.Finish = e.env.Sim.Now()
	e.decodeLatSum += (r.Finish - r.FirstToken).Seconds()
	e.decodeLatCount++
	e.env.Pool.ReleaseRequest(r.ID)
	e.env.Complete(r)
}

// retireFinished completes requests that have generated their full output,
// compacting g.reqs and g.masters in place. It runs only on an idle group,
// so no in-flight iteration indexes the batch.
func (e *Engine) retireFinished(g *group) {
	live := 0
	for i, r := range g.reqs {
		if r.Generated >= r.OutputLen {
			g.setMaster(i, noMaster)
			e.finishRequest(r)
			continue
		}
		g.reqs[live], g.masters[live] = r, g.masters[i]
		live++
	}
	clear(g.reqs[live:])
	g.reqs, g.masters = g.reqs[:live], g.masters[:live]
}

// dissolve removes an empty group and frees its instances.
func (e *Engine) dissolve(g *group) {
	e.emit(obs.KindDissolve, g, 0)
	for _, id := range g.instances {
		if e.byInst[id] == g {
			e.byInst[id] = nil
		}
	}
	e.removeGroup(g)
}

func instIn(ids []kvcache.InstanceID, id kvcache.InstanceID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// countNotIn returns how many of ids are not in other.
func countNotIn(ids, other []kvcache.InstanceID) int {
	n := 0
	for _, x := range ids {
		if !instIn(other, x) {
			n++
		}
	}
	return n
}

func subtract(ids, remove []kvcache.InstanceID) []kvcache.InstanceID {
	var out []kvcache.InstanceID
	for _, x := range ids {
		if !instIn(remove, x) {
			out = append(out, x)
		}
	}
	return out
}
