package baselines

import (
	"fmt"

	"loongserve/internal/fleet"
	"loongserve/internal/kvcache"
	"loongserve/internal/serving"
)

// Router dispatches arrivals across sub-engines that share one simulated
// cluster and KV pool — the per-server deployment used for multi-node
// baselines in Fig 11 (one vLLM / LightLLM instance per server behind a
// load balancer). Replica selection is delegated to a fleet routing
// policy; the default reproduces the original ad-hoc behavior,
// least-outstanding-tokens. For fleets of fully independent replicas
// (separate clusters and pools) use the fleet package's gateway instead.
type Router struct {
	Label string
	Subs  []serving.Engine
	// Policy picks the sub-engine per arrival; nil = fleet.LeastLoaded.
	Policy fleet.Policy

	load  []int
	views []fleet.ReplicaView
	index map[kvcache.RequestID]int
}

// NewRouter wraps sub-engines behind least-loaded routing.
func NewRouter(label string, subs []serving.Engine) *Router {
	return &Router{Label: label, Subs: subs, index: make(map[kvcache.RequestID]int)}
}

// Name implements serving.Engine.
func (r *Router) Name() string { return r.Label }

// routerView adapts one sub-engine to fleet.ReplicaView. Sub-engines share
// a KV pool, so there is no per-sub prefix cache to report.
type routerView struct {
	r *Router
	i int
}

func (v routerView) OutstandingTokens() int { return v.r.load[v.i] }

func (v routerView) CachedTokens(fleet.RequestInfo) int { return 0 }

func (v routerView) SessionTokens(fleet.RequestInfo) int { return 0 }

// Capability reports identical sub-engine replicas: the in-process router
// fronts clones, so capability-aware scores see a uniform fleet. The
// sheet's speed and cost are nominal (equal across sub-engines), which is
// all a relative score needs.
func (v routerView) Capability() fleet.ReplicaCapability {
	return fleet.ReplicaCapability{Kind: "sub-engine", GPUs: 1, CostUnits: 1, KVCapacity: 1 << 30, MaxContext: 1 << 30, PrefillRate: 1}
}

// Init implements serving.Engine: all sub-engines share the environment
// (same simulator, same pool, same completion sink).
func (r *Router) Init(env *serving.Env) error {
	if len(r.Subs) == 0 {
		return fmt.Errorf("%s: no sub-engines", r.Label)
	}
	if r.Policy == nil {
		r.Policy = fleet.NewLeastLoaded()
	}
	for _, s := range r.Subs {
		if cb, ok := s.(*ContBatch); ok {
			cb.sharedHeap = true // siblings share env.Sim: no fusion (fuse.go)
		}
		if err := s.Init(env); err != nil {
			return err
		}
	}
	r.load = make([]int, len(r.Subs))
	r.views = make([]fleet.ReplicaView, len(r.Subs))
	for i := range r.Subs {
		r.views[i] = routerView{r: r, i: i}
	}
	inner := env.Complete
	env.Complete = func(req *serving.Request) {
		if idx, ok := r.index[req.ID]; ok {
			r.load[idx] -= req.Tokens()
			delete(r.index, req.ID)
		}
		inner(req)
	}
	return nil
}

// Arrive routes to the sub-engine the policy picks.
func (r *Router) Arrive(req *serving.Request) {
	info := fleet.RequestInfo{ID: req.ID, InputLen: req.InputLen}
	best := r.Policy.Pick(info, r.views)
	if best < 0 || best >= len(r.Subs) {
		panic(fmt.Sprintf("%s: policy %s picked sub-engine %d of %d", r.Label, r.Policy.Name(), best, len(r.Subs)))
	}
	r.load[best] += req.Tokens()
	r.index[req.ID] = best
	r.Subs[best].Arrive(req)
}
