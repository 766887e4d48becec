package controlplane

import (
	"fmt"
	"io"
	"sync"

	"loongserve/internal/kvcache"
)

// Handler executes control-plane commands against the local execution
// engine. The GroupConfig passed to each method is the instance's cached
// metadata for the command's group at the command's epoch — handlers never
// see a command whose group reference missed the cache.
type Handler interface {
	// Prefill runs one striped prefill iteration, retaining KV tokens per
	// the proactive scale-down plan (§4.1).
	Prefill(cfg *GroupConfig, cmd *PrefillCommand) error
	// Decode runs one decoding iteration under the multi-master
	// assignment (§4.2).
	Decode(cfg *GroupConfig, cmd *DecodeCommand) error
	// Scale applies an elastic scaling plan. cfg is the pre-scaling
	// config; the server updates its cache after Scale returns nil.
	Scale(cfg *GroupConfig, plan *ScalePlan) error
	// Release frees finished requests' KV tokens.
	Release(cfg *GroupConfig, cmd *ReleaseCommand) error
}

// InstanceServer is the control-plane endpoint living on each elastic
// instance's rank 0. It maintains the ESP metadata cache and answers the
// manager's commands. It owns no transport: Handle answers one message, and
// a connection reaches it either through Serve (a Recv-Handle-Send loop, as
// over TCP) or through Inline, which calls Handle on the sender's stack.
type InstanceServer struct {
	ID      kvcache.InstanceID
	handler Handler

	mu    sync.Mutex
	cache map[GroupID]*GroupConfig
}

// NewInstanceServer builds a server for one instance.
func NewInstanceServer(id kvcache.InstanceID, h Handler) *InstanceServer {
	return &InstanceServer{
		ID:      id,
		handler: h,
		cache:   make(map[GroupID]*GroupConfig),
	}
}

// CachedEpoch reports the cached epoch for a group, or false when the group
// is unknown.
func (s *InstanceServer) CachedEpoch(g GroupID) (Epoch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, ok := s.cache[g]
	if !ok {
		return 0, false
	}
	return cfg.Group.Epoch, true
}

// DropCaches discards the instance's entire ESP metadata cache, as if the
// process restarted and lost its in-memory state. The next command
// referencing any group is answered with NakUnknownGroup, forcing the
// manager down the config-resend path — this is the fault-injection hook
// behind the fleet's "cachedrop" fault kind.
func (s *InstanceServer) DropCaches() {
	s.mu.Lock()
	s.cache = make(map[GroupID]*GroupConfig)
	s.mu.Unlock()
}

// Serve answers the commands arriving on conn until it closes. It returns
// nil on clean shutdown (manager closed the channel) and the first
// transport or protocol error otherwise.
func (s *InstanceServer) Serve(conn Conn) error {
	for {
		msg, err := conn.Recv()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		reply, err := s.Handle(msg)
		if err != nil {
			return err
		}
		if err := conn.Send(reply); err != nil {
			return err
		}
	}
}

// lookup resolves a group reference against the cache.
func (s *InstanceServer) lookup(ref Epoched) (*GroupConfig, NakCode, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, ok := s.cache[ref.ID]
	if !ok {
		return nil, NakUnknownGroup, false
	}
	switch {
	case cfg.Group.Epoch == ref.Epoch:
		return cfg, 0, true
	case cfg.Group.Epoch > ref.Epoch:
		return nil, NakStaleEpoch, false
	default:
		// The manager is ahead of us: behave like a cache miss so it
		// resends the config.
		return nil, NakUnknownGroup, false
	}
}

func (s *InstanceServer) ack(seq uint64) (Message, error) {
	return &Ack{Seq: seq, Instance: s.ID}, nil
}

func (s *InstanceServer) nak(seq uint64, code NakCode, ref Epoched) (Message, error) {
	return &Nak{Seq: seq, Instance: s.ID, Code: code, Group: ref}, nil
}

// Handle executes one manager message against the metadata cache and the
// handler, and returns the instance's reply: an Ack, or a Nak naming why
// the message was refused. A message the manager never sends an instance
// (an Ack or a Nak) is an error.
func (s *InstanceServer) Handle(msg Message) (Message, error) {
	switch m := msg.(type) {
	case *GroupConfig:
		if err := m.Validate(); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		s.mu.Lock()
		cur, ok := s.cache[m.Group.ID]
		if ok && cur.Group.Epoch > m.Group.Epoch {
			s.mu.Unlock()
			return s.nak(m.Seq, NakStaleEpoch, m.Group)
		}
		s.cache[m.Group.ID] = m
		s.mu.Unlock()
		return s.ack(m.Seq)

	case *PrefillCommand:
		cfg, code, ok := s.lookup(m.Group)
		if !ok {
			return s.nak(m.Seq, code, m.Group)
		}
		if err := m.Validate(len(cfg.Instances)); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		if err := s.handler.Prefill(cfg, m); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		return s.ack(m.Seq)

	case *DecodeCommand:
		cfg, code, ok := s.lookup(m.Group)
		if !ok {
			return s.nak(m.Seq, code, m.Group)
		}
		if err := m.Validate(len(cfg.Instances)); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		if err := s.handler.Decode(cfg, m); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		return s.ack(m.Seq)

	case *ScalePlan:
		cfg, code, ok := s.lookup(m.Group)
		if !ok {
			return s.nak(m.Seq, code, m.Group)
		}
		if err := m.Validate(); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		if err := s.handler.Scale(cfg, m); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		// Update the cached metadata in place: this is the common-case
		// path that avoids a GroupConfig resend after every scaling.
		s.mu.Lock()
		member := false
		for _, id := range m.Members {
			if id == s.ID {
				member = true
				break
			}
		}
		if member {
			s.cache[m.Group.ID] = &GroupConfig{
				Group:     Epoched{ID: m.Group.ID, Epoch: m.NewEpoch},
				Instances: m.Members,
				TP:        cfg.TP,
			}
		} else {
			// We left the group; drop the metadata so a stale
			// reference later is answered with unknown-group.
			delete(s.cache, m.Group.ID)
		}
		s.mu.Unlock()
		return s.ack(m.Seq)

	case *ReleaseCommand:
		cfg, code, ok := s.lookup(m.Group)
		if !ok {
			return s.nak(m.Seq, code, m.Group)
		}
		if err := s.handler.Release(cfg, m); err != nil {
			return s.nak(m.Seq, NakBadPayload, m.Group)
		}
		return s.ack(m.Seq)
	}
	return nil, fmt.Errorf("controlplane: instance %d received unexpected %v", s.ID, msg.Type())
}

// NopHandler accepts every command without side effects; useful for
// protocol-only tests.
type NopHandler struct{}

// Prefill implements Handler.
func (NopHandler) Prefill(*GroupConfig, *PrefillCommand) error { return nil }

// Decode implements Handler.
func (NopHandler) Decode(*GroupConfig, *DecodeCommand) error { return nil }

// Scale implements Handler.
func (NopHandler) Scale(*GroupConfig, *ScalePlan) error { return nil }

// Release implements Handler.
func (NopHandler) Release(*GroupConfig, *ReleaseCommand) error { return nil }
