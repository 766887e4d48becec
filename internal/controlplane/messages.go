// Package controlplane defines the per-iteration messages that the
// LoongServe global manager sends its elastic instances (§6 of the paper):
// group membership cached per (group, epoch), prefill commands carrying the
// token-granularity retention plan of the proactive scale-down, decode
// commands with their multi-master assignment, and elastic scaling plans,
// together with their structural checks.
//
// Only this schema remains. The codec, metadata-cache protocol, transports
// and instance-side KV mirror that carried it are gone, and nothing imports
// the package; ROADMAP item 9 records its removal. DESIGN.md keeps the
// codec's measured message sizes.
package controlplane

import (
	"fmt"

	"loongserve/internal/kvcache"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message kinds, in protocol order.
const (
	// MsgGroupConfig installs or replaces a parallel group's membership
	// and epoch in the instance metadata cache.
	MsgGroupConfig MsgType = iota + 1
	// MsgPrefill starts a striped prefill for a batch, carrying the
	// token-granularity retention plan of the proactive scale-down (§4.1).
	MsgPrefill
	// MsgDecode runs one decoding iteration under the multi-master
	// assignment (§4.2).
	MsgDecode
	// MsgScale applies an elastic scaling plan between iterations (§4).
	MsgScale
	// MsgRelease frees a finished request's KV tokens.
	MsgRelease
	// MsgAck acknowledges a command.
	MsgAck
	// MsgNak rejects a command; Code says why (e.g. metadata cache miss).
	MsgNak
)

func (t MsgType) String() string {
	switch t {
	case MsgGroupConfig:
		return "group-config"
	case MsgPrefill:
		return "prefill"
	case MsgDecode:
		return "decode"
	case MsgScale:
		return "scale"
	case MsgRelease:
		return "release"
	case MsgAck:
		return "ack"
	case MsgNak:
		return "nak"
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// NakCode classifies command rejections.
type NakCode uint8

// Rejection reasons.
const (
	// NakUnknownGroup: the command referenced a (group, epoch) the
	// instance has not cached; the manager must resend the GroupConfig.
	NakUnknownGroup NakCode = iota + 1
	// NakStaleEpoch: the command's epoch is older than the cached one.
	NakStaleEpoch
	// NakBadPayload: the payload failed validation.
	NakBadPayload
)

func (c NakCode) String() string {
	switch c {
	case NakUnknownGroup:
		return "unknown-group"
	case NakStaleEpoch:
		return "stale-epoch"
	case NakBadPayload:
		return "bad-payload"
	}
	return fmt.Sprintf("nakcode(%d)", uint8(c))
}

// GroupID names a parallel group. IDs are allocated by the global manager
// and reused only after the group dissolves.
type GroupID uint32

// Epoch versions a group's membership. Every elastic scaling operation that
// changes membership bumps the epoch, invalidating cached metadata.
type Epoch uint32

// GroupConfig is the ESP metadata instances cache: the full membership of a
// parallel group at one epoch. Sent only when the epoch changes; all other
// commands reference it by (Group, Epoch).
type GroupConfig struct {
	Group Epoched
	Seq   uint64
	// Instances is the ordered ring membership (§2.3 Figure 1): instance
	// i sends KV tensors to instance (i+1) mod len during striped prefill.
	Instances []kvcache.InstanceID
	// TP is the tensor-parallel degree inside each instance; the wire
	// protocol carries it so rank-0 can fan out to TP-1 local ranks.
	TP int
}

// Epoched is the (group, epoch) reference carried by every group-scoped
// command.
type Epoched struct {
	ID    GroupID
	Epoch Epoch
}

func (e Epoched) String() string { return fmt.Sprintf("g%d@%d", e.ID, e.Epoch) }

// RequestSpec describes one request inside a batch command.
type RequestSpec struct {
	ID  kvcache.RequestID
	Len int // input length (prefill) or resident KV length (decode)
}

// PrefillCommand starts one prefill iteration on a group. Retention is the
// token-granularity proactive scale-down plan: Retention[t] is the position
// (index into the group's instance ring) that must retain token t's KV
// tensors while they circulate (§4.1 Figure 7). An empty plan means uniform
// striped retention (no scale-down).
type PrefillCommand struct {
	Group     Epoched
	Seq       uint64
	Requests  []RequestSpec
	Retention []int32
}

// DecodeCommand runs one decoding iteration. Masters[i] is the ring
// position of the master instance that owns Requests[i] — the instance that
// stores its newly generated KV token and runs its local layers (§4.2).
type DecodeCommand struct {
	Group    Epoched
	Seq      uint64
	Requests []RequestSpec
	Masters  []int32
}

// ScaleKind discriminates elastic scaling plans.
type ScaleKind uint8

// Scaling plan kinds.
const (
	// ScaleDown shrinks the group to a member prefix/subset; KV tensors
	// are already in place thanks to proactive migration, so the plan
	// carries only the survivor set.
	ScaleDown ScaleKind = iota + 1
	// ScaleUp adds instances to the group with no KV migration (§4.2).
	ScaleUp
)

func (k ScaleKind) String() string {
	switch k {
	case ScaleDown:
		return "scale-down"
	case ScaleUp:
		return "scale-up"
	}
	return fmt.Sprintf("scalekind(%d)", uint8(k))
}

// ScalePlan changes a group's membership between iterations. It implicitly
// bumps the group epoch to NewEpoch; instances update their metadata cache
// in place, so no GroupConfig resend is needed for the common case.
type ScalePlan struct {
	Group    Epoched
	Seq      uint64
	Kind     ScaleKind
	NewEpoch Epoch
	// Members is the full post-scaling membership in ring order.
	Members []kvcache.InstanceID
}

// ReleaseCommand frees the KV tokens a set of finished requests hold on the
// receiving instance.
type ReleaseCommand struct {
	Group    Epoched
	Seq      uint64
	Requests []kvcache.RequestID
}

// Ack acknowledges Seq from one instance.
type Ack struct {
	Seq      uint64
	Instance kvcache.InstanceID
}

// Nak rejects Seq from one instance with a reason.
type Nak struct {
	Seq      uint64
	Instance kvcache.InstanceID
	Code     NakCode
	Group    Epoched // the reference that missed, for cache-miss recovery
}

// Message is the union of all wire messages.
type Message interface {
	// Type returns the wire discriminator.
	Type() MsgType
}

// Type implements Message.
func (*GroupConfig) Type() MsgType { return MsgGroupConfig }

// Type implements Message.
func (*PrefillCommand) Type() MsgType { return MsgPrefill }

// Type implements Message.
func (*DecodeCommand) Type() MsgType { return MsgDecode }

// Type implements Message.
func (*ScalePlan) Type() MsgType { return MsgScale }

// Type implements Message.
func (*ReleaseCommand) Type() MsgType { return MsgRelease }

// Type implements Message.
func (*Ack) Type() MsgType { return MsgAck }

// Type implements Message.
func (*Nak) Type() MsgType { return MsgNak }

// Validate checks the membership is non-empty, TP is positive and no
// instance is listed twice.
func (c *GroupConfig) Validate() error {
	if len(c.Instances) == 0 {
		return fmt.Errorf("controlplane: group %v has no instances", c.Group)
	}
	if c.TP < 1 {
		return fmt.Errorf("controlplane: group %v has TP=%d < 1", c.Group, c.TP)
	}
	seen := make(map[kvcache.InstanceID]bool, len(c.Instances))
	for _, id := range c.Instances {
		if seen[id] {
			return fmt.Errorf("controlplane: group %v lists instance %d twice", c.Group, id)
		}
		seen[id] = true
	}
	return nil
}

// Validate checks the retention plan targets ring positions that exist.
func (p *PrefillCommand) Validate(groupSize int) error {
	if len(p.Requests) == 0 {
		return fmt.Errorf("controlplane: prefill %d has no requests", p.Seq)
	}
	total := 0
	for _, r := range p.Requests {
		if r.Len <= 0 {
			return fmt.Errorf("controlplane: prefill %d request %d has len %d", p.Seq, r.ID, r.Len)
		}
		total += r.Len
	}
	if len(p.Retention) != 0 && len(p.Retention) != total {
		return fmt.Errorf("controlplane: prefill %d retention covers %d tokens, batch has %d",
			p.Seq, len(p.Retention), total)
	}
	for t, pos := range p.Retention {
		if pos < 0 || int(pos) >= groupSize {
			return fmt.Errorf("controlplane: prefill %d token %d retained at position %d outside group of %d",
				p.Seq, t, pos, groupSize)
		}
	}
	return nil
}

// Validate checks master positions are inside the group.
func (d *DecodeCommand) Validate(groupSize int) error {
	if len(d.Requests) == 0 {
		return fmt.Errorf("controlplane: decode %d has no requests", d.Seq)
	}
	if len(d.Masters) != len(d.Requests) {
		return fmt.Errorf("controlplane: decode %d has %d masters for %d requests",
			d.Seq, len(d.Masters), len(d.Requests))
	}
	for i, m := range d.Masters {
		if m < 0 || int(m) >= groupSize {
			return fmt.Errorf("controlplane: decode %d request %d mastered at position %d outside group of %d",
				d.Seq, d.Requests[i].ID, m, groupSize)
		}
	}
	return nil
}

// Validate checks the plan's shape against its kind.
func (s *ScalePlan) Validate() error {
	if len(s.Members) == 0 {
		return fmt.Errorf("controlplane: scale plan %d leaves group %v empty", s.Seq, s.Group)
	}
	if s.NewEpoch <= s.Group.Epoch {
		return fmt.Errorf("controlplane: scale plan %d does not advance epoch (%d -> %d)",
			s.Seq, s.Group.Epoch, s.NewEpoch)
	}
	switch s.Kind {
	case ScaleDown, ScaleUp:
		return nil
	}
	return fmt.Errorf("controlplane: scale plan %d has unknown kind %d", s.Seq, uint8(s.Kind))
}
