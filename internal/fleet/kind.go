package fleet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// ReplicaKind is one provisionable replica type of a heterogeneous fleet:
// a name, the Spec that builds an instance of it, and a derived capability
// sheet. The sheet is measured from the kind's own cluster, engine and
// cost model — node count, GPU class, KV capacity, the longest sequence
// the engine can hold, prefill speed and provisioning cost are read off
// the artifacts the Spec constructs, never hand-typed — so a kind cannot
// advertise a capability its replicas do not have.
//
// Kinds are compared by identity: the same *ReplicaKind in two groups
// means the same type of replica. A resolved kind is immutable and safe to
// share across gateways and experiment arms.
type ReplicaKind struct {
	Name string
	Spec Spec

	// Derived by Resolve (or by the first gateway that provisions the
	// kind). Read-only afterwards.

	// Nodes and GPUs describe the hardware footprint of one replica.
	Nodes int
	GPUs  int
	// KVCapacity is the replica's total KV pool in token slots.
	KVCapacity int
	// MaxContext is the largest single sequence (input + output KV) one
	// replica can hold: the engine's own serving envelope
	// (serving.CapabilityReporter) when it reports one, otherwise the
	// largest single-instance pool — the conservative no-KV-sharding bound.
	MaxContext int
	// CostUnits is the relative provisioning cost of keeping one replica
	// alive for one second, in GPU-seconds — the denominator of
	// cost-normalized goodput. Derived as the replica's GPU count.
	CostUnits float64
	// PrefillRate is the tokens/second one replica prefills at the
	// reference 8K-token prompt, from the kind's cost model — the exchange
	// rate capability-aware scores use.
	PrefillRate float64

	// cm is the kind's pricing model. Gateways share it and no engine
	// runs on it, because a CostModel writes its TP memo on a miss.
	cm       *costmodel.CostModel
	nvlink   cluster.Link
	ibLink   cluster.Link
	resolved bool
}

// NewKind wraps a Spec as a named replica kind. The capability sheet is
// filled by Resolve (explicitly, or implicitly by the first gateway that
// builds a replica of the kind).
func NewKind(name string, spec Spec) *ReplicaKind {
	return &ReplicaKind{Name: name, Spec: spec}
}

// Resolve derives the kind's capability sheet by building one probe
// replica — cluster, pool and engine — and reading the facts off it. The
// probe never simulates; it exists only to be measured. Idempotent.
func (k *ReplicaKind) Resolve() error {
	if k.resolved {
		return nil
	}
	if k.Spec.NewEngine == nil || k.Spec.NewCluster == nil {
		return fmt.Errorf("fleet: kind %q needs NewEngine and NewCluster", k.Name)
	}
	c, err := k.Spec.NewCluster()
	if err != nil {
		return fmt.Errorf("fleet: kind %q cluster: %w", k.Name, err)
	}
	eng := k.Spec.NewEngine()
	env := &serving.Env{
		Sim:      simevent.New(),
		Cluster:  c,
		CM:       costmodel.New(c.Model, c.HW),
		Pool:     c.NewPool(),
		Complete: func(*serving.Request) {},
	}
	if err := eng.Init(env); err != nil {
		return fmt.Errorf("fleet: kind %q probe init: %w", k.Name, err)
	}
	k.resolveFrom(c, env.CM, eng)
	return nil
}

// resolveFrom fills the capability sheet from an already-built replica's
// cluster and initialized engine, keeping cm, which no engine may use, as
// the kind's pricing model.
func (k *ReplicaKind) resolveFrom(c *cluster.Cluster, cm *costmodel.CostModel, eng serving.Engine) {
	if k.resolved {
		return
	}
	nodes := make(map[cluster.NodeID]bool)
	maxInstance := 0
	for _, inst := range c.Instances {
		nodes[inst.Node] = true
		k.GPUs += inst.TP
		k.KVCapacity += inst.KVCapacity
		if inst.KVCapacity > maxInstance {
			maxInstance = inst.KVCapacity
		}
	}
	k.Nodes = len(nodes)
	k.CostUnits = float64(k.GPUs)
	k.MaxContext = maxInstance
	if cr, ok := eng.(serving.CapabilityReporter); ok {
		k.MaxContext = cr.Capability().MaxSeqTokens
	}
	k.cm = cm
	k.nvlink = cluster.Link{Bandwidth: c.HW.NVLinkBandwidth, Latency: c.HW.NVLinkLatency}
	k.ibLink = cluster.Link{Bandwidth: c.HW.IBBandwidth, Latency: c.HW.IBLatency}
	// The same calibration the gateway has always used for the
	// migrate-vs-recompute exchange rate, now per kind.
	const refLen = 8192
	k.PrefillRate = refLen / k.cm.PrefillIterTime([]int{refLen}, 1, k.GPUs, k.nvlink).Seconds()
	k.resolved = true
}

// PrefillSeconds predicts the time one replica of this kind needs to
// prefill an n-token prompt, from the kind's cost model — the pricing
// primitive behind capability-aware routing and kind-picking autoscaling.
// The kind must be resolved.
func (k *ReplicaKind) PrefillSeconds(n int) float64 {
	if n <= 0 {
		return 0
	}
	return k.cm.PrefillIterTime([]int{n}, 1, k.GPUs, k.nvlink).Seconds()
}

// blockCost prices evicting one cached KV block: a block at context offset
// start costs the marginal prefill time of its tokens on one replica of
// this kind, so deep blocks are dearer per KV token freed than shallow
// ones. Replica radix caches price GDSF eviction with their own kind, the
// cold tier with the reference kind. The kind must be resolved.
func (k *ReplicaKind) blockCost(start, tokens int) float64 {
	full := k.cm.PrefillIterTime([]int{start + tokens}, 1, k.GPUs, k.nvlink)
	if start == 0 {
		return full.Seconds()
	}
	return (full - k.cm.PrefillIterTime([]int{start}, 1, k.GPUs, k.nvlink)).Seconds()
}

// SLOBudget returns the latency budget for an (in, out) request on this
// kind's reference configuration — used when a heterogeneous run pins all
// arms' budgets to one kind (Config.SLOKind).
func (k *ReplicaKind) SLOBudget(in, out int, scale float64) time.Duration {
	return serving.SLOBudget(k.cm, k.GPUs, in, out, scale)
}

// Capability returns the policy-facing capability descriptor of one
// replica of this kind.
func (k *ReplicaKind) Capability() ReplicaCapability {
	return ReplicaCapability{
		Kind:        k.Name,
		GPUs:        k.GPUs,
		CostUnits:   k.CostUnits,
		KVCapacity:  k.KVCapacity,
		MaxContext:  k.MaxContext,
		PrefillRate: k.PrefillRate,
	}
}

// ReplicaGroup is one slice of a heterogeneous fleet composition: Count
// replicas of Kind.
type ReplicaGroup struct {
	Kind  *ReplicaKind
	Count int
}

// ParseMix parses a CLI composition like "loong:2,contbatch:4" against a
// set of known kinds, returning one group per mention. Errors name the
// known kinds, mirroring the -cache validation style.
func ParseMix(mix string, known []*ReplicaKind) ([]ReplicaGroup, error) {
	names := make([]string, len(known))
	byName := make(map[string]*ReplicaKind, len(known))
	for i, k := range known {
		names[i] = k.Name
		byName[k.Name] = k
	}
	var groups []ReplicaGroup
	for _, part := range strings.Split(mix, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, countStr, hasCount := strings.Cut(part, ":")
		count := 1
		if hasCount {
			n, err := strconv.Atoi(countStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fleet: bad replica count %q in %q (want kind:count)", countStr, part)
			}
			count = n
		}
		k, found := byName[name]
		if !found {
			return nil, fmt.Errorf("fleet: unknown replica kind %q (known kinds: %s)", name, strings.Join(names, ", "))
		}
		groups = append(groups, ReplicaGroup{Kind: k, Count: count})
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("fleet: empty composition %q (known kinds: %s)", mix, strings.Join(names, ", "))
	}
	return groups, nil
}
