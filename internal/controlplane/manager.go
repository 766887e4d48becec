package controlplane

import (
	"fmt"
	"sort"
	"sync"

	"loongserve/internal/kvcache"
)

// Stats counts manager-side protocol traffic, letting tests and operators
// verify the metadata cache is doing its job (configs are sent once per
// epoch per member, not once per command).
type Stats struct {
	ConfigsSent int // GroupConfig messages pushed
	Commands    int // prefill/decode/scale/release messages pushed
	Resends     int // commands retried after a cache-miss Nak
	Naks        int // Naks received (all codes)
}

// Manager is the global manager's control-plane endpoint: one Conn per
// elastic instance, an authoritative view of every group's membership, and
// a record of which instances have which metadata cached.
type Manager struct {
	mu     sync.Mutex
	conns  map[kvcache.InstanceID]Conn
	locks  map[kvcache.InstanceID]*sync.Mutex // serializes send+recv pairs per conn
	groups map[GroupID]*GroupConfig
	known  map[kvcache.InstanceID]map[GroupID]Epoch
	seq    uint64
	stats  Stats
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{
		conns:  make(map[kvcache.InstanceID]Conn),
		locks:  make(map[kvcache.InstanceID]*sync.Mutex),
		groups: make(map[GroupID]*GroupConfig),
		known:  make(map[kvcache.InstanceID]map[GroupID]Epoch),
	}
}

// AddInstance registers the connection to one elastic instance.
func (m *Manager) AddInstance(id kvcache.InstanceID, c Conn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.conns[id] = c
	m.locks[id] = &sync.Mutex{}
	m.known[id] = make(map[GroupID]Epoch)
}

// Stats returns a snapshot of the traffic counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Group returns the authoritative config for a group, or nil.
func (m *Manager) Group(id GroupID) *GroupConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups[id]
}

// Close shuts every instance connection down.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, c := range m.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *Manager) nextSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return m.seq
}

// CreateGroup installs a new parallel group at epoch 1 on its members.
func (m *Manager) CreateGroup(id GroupID, members []kvcache.InstanceID, tp int) error {
	cfg := &GroupConfig{
		Group:     Epoched{ID: id, Epoch: 1},
		Instances: append([]kvcache.InstanceID(nil), members...),
		TP:        tp,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	if _, ok := m.groups[id]; ok {
		m.mu.Unlock()
		return fmt.Errorf("controlplane: group %d already exists", id)
	}
	for _, inst := range members {
		if _, ok := m.conns[inst]; !ok {
			m.mu.Unlock()
			return fmt.Errorf("controlplane: group %d references unknown instance %d", id, inst)
		}
	}
	m.groups[id] = cfg
	m.mu.Unlock()
	return m.pushConfigs(cfg, members)
}

// pushConfigs sends cfg, in member order, to every listed instance that
// does not already cache its epoch, and waits for each ack. Every stale
// member is pushed to; the first error is returned.
func (m *Manager) pushConfigs(cfg *GroupConfig, members []kvcache.InstanceID) error {
	var first error
	for _, inst := range members {
		m.mu.Lock()
		lk := m.locks[inst]
		stale := m.known[inst][cfg.Group.ID] != cfg.Group.Epoch
		m.mu.Unlock()
		if !stale {
			continue
		}
		lk.Lock()
		err := m.sendConfig(inst, cfg)
		lk.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sendConfig pushes one config to one instance and awaits the ack. The
// caller must hold the instance lock (command and pushConfigs do).
func (m *Manager) sendConfig(inst kvcache.InstanceID, cfg *GroupConfig) error {
	m.mu.Lock()
	conn := m.conns[inst]
	m.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("controlplane: no connection to instance %d", inst)
	}
	msg := &GroupConfig{
		Group:     cfg.Group,
		Seq:       m.nextSeq(),
		Instances: cfg.Instances,
		TP:        cfg.TP,
	}
	if err := conn.Send(msg); err != nil {
		return err
	}
	m.mu.Lock()
	m.stats.ConfigsSent++
	m.mu.Unlock()
	reply, err := conn.Recv()
	if err != nil {
		return err
	}
	switch r := reply.(type) {
	case *Ack:
		if r.Seq != msg.Seq {
			return fmt.Errorf("controlplane: instance %d acked seq %d, want %d", inst, r.Seq, msg.Seq)
		}
		m.mu.Lock()
		m.known[inst][cfg.Group.ID] = cfg.Group.Epoch
		m.mu.Unlock()
		return nil
	case *Nak:
		m.mu.Lock()
		m.stats.Naks++
		m.mu.Unlock()
		return fmt.Errorf("controlplane: instance %d rejected config %v: %v", inst, cfg.Group, r.Code)
	}
	return fmt.Errorf("controlplane: instance %d sent unexpected %v", inst, reply.Type())
}

// command sends msg to one instance, handling the cache-miss Nak by
// resending the group config and retrying once.
func (m *Manager) command(inst kvcache.InstanceID, cfg *GroupConfig, msg Message, seq uint64) error {
	m.mu.Lock()
	conn, lk := m.conns[inst], m.locks[inst]
	m.mu.Unlock()
	if conn == nil || lk == nil {
		return fmt.Errorf("controlplane: no connection to instance %d", inst)
	}
	lk.Lock()
	defer lk.Unlock()
	for attempt := 0; ; attempt++ {
		if err := conn.Send(msg); err != nil {
			return err
		}
		m.mu.Lock()
		m.stats.Commands++
		if attempt > 0 {
			m.stats.Resends++
		}
		m.mu.Unlock()
		reply, err := conn.Recv()
		if err != nil {
			return err
		}
		switch r := reply.(type) {
		case *Ack:
			if r.Seq != seq {
				return fmt.Errorf("controlplane: instance %d acked seq %d, want %d", inst, r.Seq, seq)
			}
			return nil
		case *Nak:
			m.mu.Lock()
			m.stats.Naks++
			m.mu.Unlock()
			if r.Code == NakUnknownGroup && attempt == 0 {
				// Cache miss (e.g. instance restart): resend the
				// metadata and retry the command once.
				if err := m.sendConfig(inst, cfg); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("controlplane: instance %d rejected seq %d: %v", inst, seq, r.Code)
		default:
			return fmt.Errorf("controlplane: instance %d sent unexpected %v", inst, reply.Type())
		}
	}
}

// broadcast sends msg to every member in order and returns the first
// error, after every member has received it.
func (m *Manager) broadcast(cfg *GroupConfig, members []kvcache.InstanceID, msg Message, seq uint64) error {
	var first error
	for _, inst := range members {
		if err := m.command(inst, cfg, msg, seq); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// lookupGroup fetches the authoritative config.
func (m *Manager) lookupGroup(id GroupID) (*GroupConfig, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cfg, ok := m.groups[id]
	if !ok {
		return nil, fmt.Errorf("controlplane: unknown group %d", id)
	}
	return cfg, nil
}

// Prefill runs one striped prefill iteration on the group.
func (m *Manager) Prefill(id GroupID, reqs []RequestSpec, retention []int32) error {
	cfg, err := m.lookupGroup(id)
	if err != nil {
		return err
	}
	cmd := &PrefillCommand{Group: cfg.Group, Seq: m.nextSeq(), Requests: reqs, Retention: retention}
	if err := cmd.Validate(len(cfg.Instances)); err != nil {
		return err
	}
	if err := m.pushConfigs(cfg, cfg.Instances); err != nil {
		return err
	}
	return m.broadcast(cfg, cfg.Instances, cmd, cmd.Seq)
}

// Decode runs one decoding iteration on the group.
func (m *Manager) Decode(id GroupID, reqs []RequestSpec, masters []int32) error {
	cfg, err := m.lookupGroup(id)
	if err != nil {
		return err
	}
	cmd := &DecodeCommand{Group: cfg.Group, Seq: m.nextSeq(), Requests: reqs, Masters: masters}
	if err := cmd.Validate(len(cfg.Instances)); err != nil {
		return err
	}
	if err := m.pushConfigs(cfg, cfg.Instances); err != nil {
		return err
	}
	return m.broadcast(cfg, cfg.Instances, cmd, cmd.Seq)
}

// Release frees finished requests on the group.
func (m *Manager) Release(id GroupID, reqs []kvcache.RequestID) error {
	cfg, err := m.lookupGroup(id)
	if err != nil {
		return err
	}
	cmd := &ReleaseCommand{Group: cfg.Group, Seq: m.nextSeq(), Requests: reqs}
	if err := m.pushConfigs(cfg, cfg.Instances); err != nil {
		return err
	}
	return m.broadcast(cfg, cfg.Instances, cmd, cmd.Seq)
}

// Scale changes the group membership. The plan goes to the union of old
// and new members — departing instances must drop their metadata, joining
// instances learn the group (via the cache-miss path if they never saw it).
// On success the authoritative epoch advances.
func (m *Manager) Scale(id GroupID, kind ScaleKind, newMembers []kvcache.InstanceID) error {
	cfg, err := m.lookupGroup(id)
	if err != nil {
		return err
	}
	plan := &ScalePlan{
		Group:    cfg.Group,
		Seq:      m.nextSeq(),
		Kind:     kind,
		NewEpoch: cfg.Group.Epoch + 1,
		Members:  append([]kvcache.InstanceID(nil), newMembers...),
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	for _, inst := range newMembers {
		if _, ok := m.conns[inst]; !ok {
			m.mu.Unlock()
			return fmt.Errorf("controlplane: scale references unknown instance %d", inst)
		}
	}
	m.mu.Unlock()

	union := unionIDs(cfg.Instances, newMembers)
	// Old members that never cached the group (should not happen, but an
	// instance may have restarted) are handled by the Nak path.
	if err := m.pushConfigs(cfg, union); err != nil {
		return err
	}
	if err := m.broadcast(cfg, union, plan, plan.Seq); err != nil {
		return err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	newCfg := &GroupConfig{
		Group:     Epoched{ID: id, Epoch: plan.NewEpoch},
		Instances: plan.Members,
		TP:        cfg.TP,
	}
	m.groups[id] = newCfg
	inNew := make(map[kvcache.InstanceID]bool, len(plan.Members))
	for _, inst := range plan.Members {
		inNew[inst] = true
	}
	for _, inst := range union {
		if inNew[inst] {
			m.known[inst][id] = plan.NewEpoch
		} else {
			delete(m.known[inst], id)
		}
	}
	return nil
}

// DissolveGroup removes a group from the manager and instructs members to
// forget it by scaling it down to a single survivor and releasing nothing;
// in practice the serving engine releases all requests first. The manager
// simply drops its authoritative state.
func (m *Manager) DissolveGroup(id GroupID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.groups, id)
	for _, k := range m.known {
		delete(k, id)
	}
}

func unionIDs(a, b []kvcache.InstanceID) []kvcache.InstanceID {
	set := make(map[kvcache.InstanceID]bool, len(a)+len(b))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		set[id] = true
	}
	out := make([]kvcache.InstanceID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
