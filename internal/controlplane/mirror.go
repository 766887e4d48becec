package controlplane

import (
	"fmt"
	"sync"

	"loongserve/internal/kvcache"
)

// MirrorHandler is a Handler that mirrors the KV-cache accounting an
// elastic instance would perform: prefill retention plans allocate tokens
// into the local pool, multi-master decoding allocates one token per
// mastered request, releases free them, and elastic scaling allocates
// nothing — the executable form of the paper's zero-overhead scaling claim
// (§4). End-to-end tests drive a manager against mirror instances and
// check the distributed accounting stays consistent with the global view.
type MirrorHandler struct {
	ID kvcache.InstanceID
	// Pool is the instance's token pool: a one-instance distributed pool,
	// whose only instance is slot 0.
	Pool *kvcache.DistributedPool

	mu       sync.Mutex
	prefills int
	decodes  int
	scales   int
	releases int
}

// NewMirrorHandler builds a mirror over a token pool with the given
// capacity.
func NewMirrorHandler(id kvcache.InstanceID, capacity int) *MirrorHandler {
	return &MirrorHandler{ID: id, Pool: kvcache.NewDistributedPool([]int{capacity})}
}

// Counts returns (prefills, decodes, scales, releases) executed.
func (h *MirrorHandler) Counts() (int, int, int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.prefills, h.decodes, h.scales, h.releases
}

// ringPos finds the handler's position in the group ring.
func (h *MirrorHandler) ringPos(cfg *GroupConfig) (int, error) {
	for i, id := range cfg.Instances {
		if id == h.ID {
			return i, nil
		}
	}
	return -1, fmt.Errorf("controlplane: instance %d not in group %v", h.ID, cfg.Group)
}

// Prefill implements Handler: allocate every token the retention plan pins
// to this instance. An empty plan means uniform striping (token t stays at
// ring position t mod sp).
func (h *MirrorHandler) Prefill(cfg *GroupConfig, cmd *PrefillCommand) error {
	me, err := h.ringPos(cfg)
	if err != nil {
		return err
	}
	sp := len(cfg.Instances)
	off := 0
	for _, r := range cmd.Requests {
		mine := 0
		for t := off; t < off+r.Len; t++ {
			pos := t % sp
			if len(cmd.Retention) > 0 {
				pos = int(cmd.Retention[t])
			}
			if pos == me {
				mine++
			}
		}
		off += r.Len
		if mine > 0 {
			if err := h.Pool.AllocAt(r.ID, 0, mine); err != nil {
				return err
			}
		}
	}
	h.mu.Lock()
	h.prefills++
	h.mu.Unlock()
	return nil
}

// Decode implements Handler: the master of each request stores its newly
// generated KV token locally (§4.2).
func (h *MirrorHandler) Decode(cfg *GroupConfig, cmd *DecodeCommand) error {
	me, err := h.ringPos(cfg)
	if err != nil {
		return err
	}
	for i, r := range cmd.Requests {
		if int(cmd.Masters[i]) != me {
			continue
		}
		if err := h.Pool.AllocAt(r.ID, 0, 1); err != nil {
			return err
		}
	}
	h.mu.Lock()
	h.decodes++
	h.mu.Unlock()
	return nil
}

// Scale implements Handler: membership changes move no KV tensors.
func (h *MirrorHandler) Scale(cfg *GroupConfig, plan *ScalePlan) error {
	h.mu.Lock()
	h.scales++
	h.mu.Unlock()
	return nil
}

// Release implements Handler: free everything the finished requests hold
// here.
func (h *MirrorHandler) Release(cfg *GroupConfig, cmd *ReleaseCommand) error {
	for _, id := range cmd.Requests {
		h.Pool.ReleaseRequest(id)
	}
	h.mu.Lock()
	h.releases++
	h.mu.Unlock()
	return nil
}
