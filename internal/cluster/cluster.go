// Package cluster models the hardware substrate the paper evaluates on:
// servers with eight NVIDIA A800-80GB GPUs, 400 GB/s NVLink between GPUs in
// a node, and four 200 Gbps InfiniBand NICs between nodes.
//
// The cluster is organized as the paper's §4 prescribes: the unit of
// execution is the *elastic instance*, a group of TP GPUs holding one full
// replica of the model weights under tensor parallelism. Elastic sequence
// parallelism then composes instances into parallel groups at iteration
// granularity; this package provides the static facts (capacities, link
// bandwidths, transfer times) that the cost model and schedulers consume.
package cluster

import (
	"fmt"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/model"
)

// Hardware describes one GPU type and the interconnects around it.
type Hardware struct {
	Name string

	// Per-GPU compute and memory.
	PeakFLOPS    float64 // dense fp16/bf16 peak, FLOP/s
	MFUPrefill   float64 // achieved fraction of peak for prefill GEMMs
	MFUAttention float64 // achieved fraction of peak for attention kernels
	MFUDecode    float64 // achieved fraction of peak for decode GEMMs
	MemBandwidth float64 // HBM bandwidth, bytes/s
	HBMBytes     int64   // HBM capacity, bytes

	// Memory reserved per GPU for activations, workspaces and allocator
	// slack; everything left after weights goes to the KV cache pool.
	ActReserveBytes int64

	// Interconnect.
	NVLinkBandwidth float64       // intra-node GPU-GPU, bytes/s
	NVLinkLatency   time.Duration // per message
	IBBandwidth     float64       // inter-node per node pair, bytes/s
	IBLatency       time.Duration // per message

	// Fixed per-iteration serving-stack overheads (kernel launches,
	// scheduler RPC, tokenization hand-off). These are what make short
	// prefills scale poorly with more GPUs (Fig 2, top). Fused
	// chunk+decode iterations (SplitFuse) run a leaner path than full
	// prefills but heavier than pure decodes.
	PrefillOverhead time.Duration
	DecodeOverhead  time.Duration
	ChunkOverhead   time.Duration
}

// A800 returns the testbed hardware of the paper's §7.1: A800-80GB GPUs,
// 400 GB/s NVLink, 4x200 Gbps InfiniBand. Efficiency factors and fixed
// overheads are calibrated so the paper's anchor measurements hold (see
// costmodel tests): a 100K-token prefill on 8 GPUs is ~106x slower than a
// 1K-token prefill (Fig 2), and decoding is dominated by the weight read at
// small batch sizes.
func A800() Hardware {
	return Hardware{
		Name:            "A800-80GB",
		PeakFLOPS:       312e12,
		MFUPrefill:      0.50,
		MFUAttention:    0.40,
		MFUDecode:       0.45,
		MemBandwidth:    2.0e12,
		HBMBytes:        80e9,
		ActReserveBytes: 12e9,
		NVLinkBandwidth: 400e9,
		NVLinkLatency:   5 * time.Microsecond,
		IBBandwidth:     100e9, // 4 x 200 Gbps aggregated
		IBLatency:       15 * time.Microsecond,
		PrefillOverhead: 25 * time.Millisecond,
		DecodeOverhead:  3 * time.Millisecond,
		ChunkOverhead:   8 * time.Millisecond,
	}
}

// NodeID identifies a server.
type NodeID int

// Instance is an elastic instance: TP GPUs on one node holding a full
// replica of the model weights.
type Instance struct {
	ID   kvcache.InstanceID
	Node NodeID
	TP   int
	// KVCapacity is the KV-cache pool size of this instance in token slots.
	KVCapacity int
}

// Link describes the effective channel between two instances.
type Link struct {
	Bandwidth float64 // bytes/s
	Latency   time.Duration
}

// Transfer returns the time to move n bytes over the link.
func (l Link) Transfer(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return l.Latency + time.Duration(float64(bytes)/l.Bandwidth*1e9)
}

// Cluster is a set of elastic instances over one or more nodes.
type Cluster struct {
	HW          Hardware
	Model       model.Config
	GPUsPerNode int
	Instances   []*Instance
}

// New lays out nodes*gpusPerNode GPUs into elastic instances of tp GPUs
// each, filling node by node. It fails when tp does not divide gpusPerNode
// or when a single instance cannot hold the model weights.
func New(m model.Config, hw Hardware, nodes, gpusPerNode, tp int) (*Cluster, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 || gpusPerNode <= 0 || tp <= 0 {
		return nil, fmt.Errorf("cluster: non-positive shape nodes=%d gpus=%d tp=%d", nodes, gpusPerNode, tp)
	}
	if gpusPerNode%tp != 0 {
		return nil, fmt.Errorf("cluster: tp=%d does not divide gpusPerNode=%d", tp, gpusPerNode)
	}
	cap, err := KVCapacityTokens(m, hw, tp)
	if err != nil {
		return nil, err
	}
	c := &Cluster{HW: hw, Model: m, GPUsPerNode: gpusPerNode}
	id := kvcache.InstanceID(0)
	for n := 0; n < nodes; n++ {
		for i := 0; i < gpusPerNode/tp; i++ {
			c.Instances = append(c.Instances, &Instance{ID: id, Node: NodeID(n), TP: tp, KVCapacity: cap})
			id++
		}
	}
	return c, nil
}

// KVCapacityTokens returns the KV pool capacity (token slots) of one
// elastic instance with tp GPUs: HBM minus one weight replica minus the
// per-GPU activation reserve, divided by the per-token KV footprint.
func KVCapacityTokens(m model.Config, hw Hardware, tp int) (int, error) {
	total := int64(tp) * hw.HBMBytes
	free := total - m.WeightBytes() - int64(tp)*hw.ActReserveBytes
	if free <= 0 {
		return 0, fmt.Errorf("cluster: %d x %s cannot hold %s weights (%d GB) plus reserve",
			tp, hw.Name, m.Name, m.WeightBytes()/1e9)
	}
	return int(free / m.KVBytesPerToken()), nil
}

// NumInstances returns the instance count.
func (c *Cluster) NumInstances() int { return len(c.Instances) }

// Instance returns the instance with the given ID, or nil.
func (c *Cluster) Instance(id kvcache.InstanceID) *Instance {
	i := int(id)
	if i < 0 || i >= len(c.Instances) {
		return nil
	}
	return c.Instances[i]
}

// CheckIDs reports an error unless the instance IDs are 0..n-1 in order:
// the KV pool and the engines index per-instance state by InstanceID.
func (c *Cluster) CheckIDs() error {
	for i, inst := range c.Instances {
		if inst.ID != kvcache.InstanceID(i) {
			return fmt.Errorf("instance %d at position %d; instance IDs must be 0..n-1", inst.ID, i)
		}
	}
	return nil
}

// Capacities returns the per-instance KV capacities indexed by instance ID
// (New numbers instances 0..n-1), in the form kvcache.NewDistributedPool
// consumes.
func (c *Cluster) Capacities() []int {
	out := make([]int, len(c.Instances))
	for i, inst := range c.Instances {
		out[i] = inst.KVCapacity
	}
	return out
}

// NewPool builds the unified distributed KV cache pool over all instances.
func (c *Cluster) NewPool() *kvcache.DistributedPool {
	return kvcache.NewDistributedPool(c.Capacities())
}

// LinkBetween returns the channel between two instances: NVLink within a
// node, InfiniBand across nodes. An instance to itself has infinite
// bandwidth and zero latency.
func (c *Cluster) LinkBetween(a, b kvcache.InstanceID) Link {
	ia, ib := c.Instance(a), c.Instance(b)
	if ia == nil || ib == nil {
		panic(fmt.Sprintf("cluster: unknown instance %d or %d", a, b))
	}
	if a == b {
		return Link{Bandwidth: c.HW.MemBandwidth, Latency: 0}
	}
	if ia.Node == ib.Node {
		return Link{Bandwidth: c.HW.NVLinkBandwidth, Latency: c.HW.NVLinkLatency}
	}
	return Link{Bandwidth: c.HW.IBBandwidth, Latency: c.HW.IBLatency}
}

// GroupLink returns the bottleneck link of a parallel group: the lowest
// bandwidth and highest latency over the ring a sequence-parallel group
// forms. Groups of zero or one instance communicate for free.
func (c *Cluster) GroupLink(ids []kvcache.InstanceID) Link {
	if len(ids) <= 1 {
		return Link{Bandwidth: c.HW.MemBandwidth, Latency: 0}
	}
	worst := Link{Bandwidth: c.HW.NVLinkBandwidth, Latency: 0}
	for i := range ids {
		next := ids[(i+1)%len(ids)]
		l := c.LinkBetween(ids[i], next)
		if l.Bandwidth < worst.Bandwidth {
			worst.Bandwidth = l.Bandwidth
		}
		if l.Latency > worst.Latency {
			worst.Latency = l.Latency
		}
	}
	return worst
}

// MigrationTime returns the time to move n KV tokens from instance a to b:
// the reactive-migration cost the paper's proactive mechanism avoids.
func (c *Cluster) MigrationTime(tokens int, a, b kvcache.InstanceID) time.Duration {
	if tokens <= 0 || a == b {
		return 0
	}
	return c.LinkBetween(a, b).Transfer(int64(tokens) * c.Model.KVBytesPerToken())
}
