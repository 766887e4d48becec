package fleet

import (
	"loongserve/internal/controlplane"
	"loongserve/internal/kvcache"
)

// fleetGroup is the control-plane group ID for the gateway's single elastic
// group: all active replicas are its members, and every lifecycle change
// (activation, drain, crash repair) advances its epoch with a ScalePlan.
const fleetGroup controlplane.GroupID = 1

// fleetControl is the gateway's control plane: one controlplane.Manager on
// the fleet side, one controlplane.InstanceServer per replica, connected by
// in-line conns carrying the real wire encoding. Replica lifecycle
// transitions are not direct field writes — they are the instance servers'
// reaction to ScalePlans, so epochs, acks/naks and metadata-cache resends
// are exercised by every fleet run, and fault injection (DropCaches,
// RemoveInstance) perturbs exactly the state a real deployment would lose.
//
// Everything runs on the simulation goroutine: Manager.Scale hands each
// ScalePlan to every member's handler on the caller's stack, so replica
// state has changed by the time scale() returns, and the control plane
// starts no goroutine.
type fleetControl struct {
	mgr     *controlplane.Manager
	servers []*controlplane.InstanceServer
}

func newFleetControl() *fleetControl {
	return &fleetControl{mgr: controlplane.NewManager()}
}

// register wires a new replica into the control plane: its instance
// server, with a lifecycle handler that flips the replica's state on
// ScalePlans, and the manager-side registration of an in-line conn to it.
func (fc *fleetControl) register(rep *replica) {
	id := kvcache.InstanceID(rep.index)
	srv := controlplane.NewInstanceServer(id, &lifecycleHandler{rep: rep})
	fc.mgr.AddInstance(id, controlplane.Inline(srv))
	fc.servers = append(fc.servers, srv)
}

// createGroup installs the initial membership at epoch 1.
func (fc *fleetControl) createGroup(members []kvcache.InstanceID) error {
	return fc.mgr.CreateGroup(fleetGroup, members, 1)
}

// scale advances the group to a new membership; blocks until every
// reachable member acked the plan.
func (fc *fleetControl) scale(kind controlplane.ScaleKind, members []kvcache.InstanceID) error {
	return fc.mgr.Scale(fleetGroup, kind, members)
}

// remove tears down a crashed replica's connection: the manager stops
// commanding it.
func (fc *fleetControl) remove(idx int) {
	fc.mgr.RemoveInstance(kvcache.InstanceID(idx))
}

// dropCaches wipes one instance's ESP metadata cache (the partial-failure
// fault): the next command it receives draws a NakUnknownGroup and the
// manager's config-resend path.
func (fc *fleetControl) dropCaches(idx int) {
	fc.servers[idx].DropCaches()
}

func (fc *fleetControl) stats() controlplane.Stats { return fc.mgr.Stats() }

// lifecycleHandler reacts to control-plane messages on behalf of one
// replica. Only ScalePlans matter to the lifecycle: a plan listing the
// replica activates a warming one, a plan omitting it drains an active one.
// Data-plane commands (prefill/decode/release) are accepted unexercised —
// the fleet's per-request path stays on the engine fast path.
type lifecycleHandler struct {
	controlplane.NopHandler
	rep *replica
}

// Scale implements controlplane.Handler.
func (h *lifecycleHandler) Scale(cfg *controlplane.GroupConfig, plan *controlplane.ScalePlan) error {
	member := false
	for _, id := range plan.Members {
		if int(id) == h.rep.index {
			member = true
			break
		}
	}
	switch {
	case member && h.rep.state == ReplicaWarming:
		h.rep.state = ReplicaActive
	case !member && h.rep.state == ReplicaActive:
		h.rep.state = ReplicaDraining
	}
	return nil
}
