package controlplane

import (
	"fmt"
	"testing"

	"loongserve/internal/kvcache"
)

func TestValidateGroupConfig(t *testing.T) {
	base := func() *GroupConfig {
		return &GroupConfig{
			Group:     Epoched{ID: 1, Epoch: 1},
			Instances: []kvcache.InstanceID{0, 1},
			TP:        2,
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c := base()
	c.Instances = nil
	if c.Validate() == nil {
		t.Error("empty membership accepted")
	}
	c = base()
	c.TP = 0
	if c.Validate() == nil {
		t.Error("TP=0 accepted")
	}
	c = base()
	c.Instances = []kvcache.InstanceID{0, 1, 0}
	if c.Validate() == nil {
		t.Error("duplicate member accepted")
	}
}

func TestValidatePrefill(t *testing.T) {
	ok := &PrefillCommand{
		Requests:  []RequestSpec{{ID: 1, Len: 3}},
		Retention: []int32{0, 1, 1},
	}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid prefill rejected: %v", err)
	}
	bad := &PrefillCommand{Requests: []RequestSpec{{ID: 1, Len: 3}}, Retention: []int32{0, 1}}
	if bad.Validate(2) == nil {
		t.Error("short retention plan accepted")
	}
	bad = &PrefillCommand{Requests: []RequestSpec{{ID: 1, Len: 3}}, Retention: []int32{0, 1, 2}}
	if bad.Validate(2) == nil {
		t.Error("out-of-group retention accepted")
	}
	bad = &PrefillCommand{Requests: []RequestSpec{{ID: 1, Len: 0}}}
	if bad.Validate(2) == nil {
		t.Error("zero-length request accepted")
	}
	bad = &PrefillCommand{}
	if bad.Validate(2) == nil {
		t.Error("empty prefill accepted")
	}
}

func TestValidateDecode(t *testing.T) {
	ok := &DecodeCommand{
		Requests: []RequestSpec{{ID: 1, Len: 5}, {ID: 2, Len: 9}},
		Masters:  []int32{0, 1},
	}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid decode rejected: %v", err)
	}
	bad := &DecodeCommand{Requests: []RequestSpec{{ID: 1, Len: 5}}, Masters: []int32{0, 1}}
	if bad.Validate(2) == nil {
		t.Error("master/request length mismatch accepted")
	}
	bad = &DecodeCommand{Requests: []RequestSpec{{ID: 1, Len: 5}}, Masters: []int32{4}}
	if bad.Validate(2) == nil {
		t.Error("out-of-group master accepted")
	}
}

func TestValidateScalePlan(t *testing.T) {
	ok := &ScalePlan{
		Group:    Epoched{ID: 1, Epoch: 3},
		Kind:     ScaleDown,
		NewEpoch: 4,
		Members:  []kvcache.InstanceID{0},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := *ok
	bad.NewEpoch = 3
	if bad.Validate() == nil {
		t.Error("non-advancing epoch accepted")
	}
	bad = *ok
	bad.Members = nil
	if bad.Validate() == nil {
		t.Error("empty membership accepted")
	}
	bad = *ok
	bad.Kind = ScaleKind(99)
	if bad.Validate() == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, tc := range []struct {
		v    fmt.Stringer
		want string
	}{
		{MsgPrefill, "prefill"},
		{MsgDecode, "decode"},
		{MsgScale, "scale"},
		{MsgGroupConfig, "group-config"},
		{MsgRelease, "release"},
		{MsgAck, "ack"},
		{MsgNak, "nak"},
		{NakUnknownGroup, "unknown-group"},
		{NakStaleEpoch, "stale-epoch"},
		{NakBadPayload, "bad-payload"},
		{ScaleDown, "scale-down"},
		{ScaleUp, "scale-up"},
		{Epoched{ID: 4, Epoch: 9}, "g4@9"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	if MsgType(200).String() == "" || NakCode(200).String() == "" || ScaleKind(200).String() == "" {
		t.Error("unknown enum values must still print")
	}
}
