package controlplane

import (
	"testing"

	"loongserve/internal/kvcache"
)

// rawInstance hands the test an in-line conn to an InstanceServer for
// scripted, message-level protocol checks that the Manager's validation
// would otherwise never let onto the wire.
func rawInstance(t *testing.T, id kvcache.InstanceID, h Handler) Conn {
	t.Helper()
	c := Inline(NewInstanceServer(id, h))
	t.Cleanup(func() { c.Close() })
	return c
}

func rpc(t *testing.T, c Conn, msg Message) Message {
	t.Helper()
	if err := c.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return reply
}

func wantNak(t *testing.T, reply Message, code NakCode) {
	t.Helper()
	nak, ok := reply.(*Nak)
	if !ok {
		t.Fatalf("reply = %T %+v, want Nak", reply, reply)
	}
	if nak.Code != code {
		t.Fatalf("nak code = %v, want %v", nak.Code, code)
	}
}

func TestInstanceNakUnknownGroup(t *testing.T) {
	c := rawInstance(t, 1, NopHandler{})
	reply := rpc(t, c, &DecodeCommand{
		Group:    Epoched{ID: 9, Epoch: 1},
		Seq:      1,
		Requests: []RequestSpec{{ID: 1, Len: 5}},
		Masters:  []int32{0},
	})
	wantNak(t, reply, NakUnknownGroup)
}

func TestInstanceNakStaleEpoch(t *testing.T) {
	c := rawInstance(t, 1, NopHandler{})
	cfg := &GroupConfig{
		Group:     Epoched{ID: 1, Epoch: 5},
		Seq:       1,
		Instances: []kvcache.InstanceID{1},
		TP:        1,
	}
	if _, ok := rpc(t, c, cfg).(*Ack); !ok {
		t.Fatal("config not acked")
	}
	// A command referencing an older epoch is stale.
	reply := rpc(t, c, &DecodeCommand{
		Group:    Epoched{ID: 1, Epoch: 4},
		Seq:      2,
		Requests: []RequestSpec{{ID: 1, Len: 5}},
		Masters:  []int32{0},
	})
	wantNak(t, reply, NakStaleEpoch)
	// A config older than the cached one is rejected too.
	old := &GroupConfig{
		Group:     Epoched{ID: 1, Epoch: 3},
		Seq:       3,
		Instances: []kvcache.InstanceID{1},
		TP:        1,
	}
	wantNak(t, rpc(t, c, old), NakStaleEpoch)
	// A command from the future looks like a cache miss (the manager
	// must resend the config).
	future := &DecodeCommand{
		Group:    Epoched{ID: 1, Epoch: 9},
		Seq:      4,
		Requests: []RequestSpec{{ID: 1, Len: 5}},
		Masters:  []int32{0},
	}
	wantNak(t, rpc(t, c, future), NakUnknownGroup)
}

func TestInstanceNakBadPayload(t *testing.T) {
	c := rawInstance(t, 1, NopHandler{})
	cfg := &GroupConfig{
		Group:     Epoched{ID: 1, Epoch: 1},
		Seq:       1,
		Instances: []kvcache.InstanceID{1, 2},
		TP:        1,
	}
	if _, ok := rpc(t, c, cfg).(*Ack); !ok {
		t.Fatal("config not acked")
	}
	// Master position outside the 2-instance group.
	reply := rpc(t, c, &DecodeCommand{
		Group:    Epoched{ID: 1, Epoch: 1},
		Seq:      2,
		Requests: []RequestSpec{{ID: 1, Len: 5}},
		Masters:  []int32{7},
	})
	wantNak(t, reply, NakBadPayload)
	// Retention plan out of range.
	reply = rpc(t, c, &PrefillCommand{
		Group:     Epoched{ID: 1, Epoch: 1},
		Seq:       3,
		Requests:  []RequestSpec{{ID: 1, Len: 2}},
		Retention: []int32{0, 9},
	})
	wantNak(t, reply, NakBadPayload)
	// Malformed config.
	reply = rpc(t, c, &GroupConfig{Group: Epoched{ID: 2, Epoch: 1}, Seq: 4, TP: 0,
		Instances: []kvcache.InstanceID{1}})
	wantNak(t, reply, NakBadPayload)
	// Scale plan that does not advance the epoch.
	reply = rpc(t, c, &ScalePlan{
		Group: Epoched{ID: 1, Epoch: 1}, Seq: 5, Kind: ScaleDown,
		NewEpoch: 1, Members: []kvcache.InstanceID{1},
	})
	wantNak(t, reply, NakBadPayload)
}

// failingHandler rejects everything, exercising the handler-error NAK.
type failingHandler struct{ NopHandler }

func (failingHandler) Prefill(*GroupConfig, *PrefillCommand) error {
	return errTest
}

var errTest = &ErrUnknownType{T: 0} // any error value

func TestInstanceHandlerErrorBecomesNak(t *testing.T) {
	c := rawInstance(t, 1, failingHandler{})
	cfg := &GroupConfig{
		Group:     Epoched{ID: 1, Epoch: 1},
		Seq:       1,
		Instances: []kvcache.InstanceID{1},
		TP:        1,
	}
	if _, ok := rpc(t, c, cfg).(*Ack); !ok {
		t.Fatal("config not acked")
	}
	reply := rpc(t, c, &PrefillCommand{
		Group:    Epoched{ID: 1, Epoch: 1},
		Seq:      2,
		Requests: []RequestSpec{{ID: 1, Len: 4}},
	})
	wantNak(t, reply, NakBadPayload)
}

func TestNopHandlerAcceptsEverything(t *testing.T) {
	h := NopHandler{}
	if h.Prefill(nil, nil) != nil || h.Decode(nil, nil) != nil ||
		h.Scale(nil, nil) != nil || h.Release(nil, nil) != nil {
		t.Error("NopHandler returned an error")
	}
}

func TestMirrorCounts(t *testing.T) {
	tc := newTestCluster(t, 2, 1000)
	if err := tc.m.CreateGroup(1, ids(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tc.m.Prefill(1, []RequestSpec{{ID: 1, Len: 4}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tc.m.Decode(1, []RequestSpec{{ID: 1, Len: 4}}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := tc.m.Scale(1, ScaleDown, ids(0)); err != nil {
		t.Fatal(err)
	}
	if err := tc.m.Release(1, []kvcache.RequestID{1}); err != nil {
		t.Fatal(err)
	}
	p, d, s, r := tc.mirrors[0].Counts()
	if p != 1 || d != 1 || s != 1 || r != 1 {
		t.Errorf("counts = %d %d %d %d, want 1 1 1 1", p, d, s, r)
	}
}

func TestManagerGroupAndDissolve(t *testing.T) {
	tc := newTestCluster(t, 2, 100)
	if err := tc.m.CreateGroup(3, ids(0, 1), 2); err != nil {
		t.Fatal(err)
	}
	cfg := tc.m.Group(3)
	if cfg == nil || cfg.TP != 2 || len(cfg.Instances) != 2 {
		t.Fatalf("Group(3) = %+v", cfg)
	}
	if tc.m.Group(99) != nil {
		t.Error("unknown group returned a config")
	}
	tc.m.DissolveGroup(3)
	if tc.m.Group(3) != nil {
		t.Error("dissolved group still visible")
	}
	if err := tc.m.Prefill(3, []RequestSpec{{ID: 1, Len: 1}}, nil); err == nil {
		t.Error("command on dissolved group accepted")
	}
}

func TestErrUnknownTypeMessage(t *testing.T) {
	err := &ErrUnknownType{T: 42}
	if err.Error() == "" {
		t.Error("empty error message")
	}
}

func BenchmarkCodecEncodePrefill100K(b *testing.B) {
	plan := make([]int32, 100_000)
	for i := 50_000; i < len(plan); i++ {
		plan[i] = 1
	}
	msg := &PrefillCommand{
		Group:     Epoched{ID: 1, Epoch: 1},
		Seq:       1,
		Requests:  []RequestSpec{{ID: 1, Len: len(plan)}},
		Retention: plan,
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkCodecDecodePrefill100K(b *testing.B) {
	plan := make([]int32, 100_000)
	for i := 50_000; i < len(plan); i++ {
		plan[i] = 1
	}
	msg := &PrefillCommand{
		Group:     Epoched{ID: 1, Epoch: 1},
		Seq:       1,
		Requests:  []RequestSpec{{ID: 1, Len: len(plan)}},
		Retention: plan,
	}
	buf, err := Encode(nil, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeCommandRoundTrip(b *testing.B) {
	reqs := make([]RequestSpec, 64)
	masters := make([]int32, 64)
	for i := range reqs {
		reqs[i] = RequestSpec{ID: kvcache.RequestID(1000 + i), Len: 4000 + i}
		masters[i] = int32(i % 8)
	}
	msg := &DecodeCommand{Group: Epoched{ID: 1, Epoch: 1}, Seq: 1, Requests: reqs, Masters: masters}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := Encode(nil, msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
