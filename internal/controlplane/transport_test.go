package controlplane

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"loongserve/internal/kvcache"
)

// recordingHandler keeps the last prefill command its instance executed.
type recordingHandler struct {
	NopHandler
	prefill *PrefillCommand
}

func (h *recordingHandler) Prefill(_ *GroupConfig, cmd *PrefillCommand) error {
	h.prefill = cmd
	return nil
}

// TestInlineSendRecvClose pins the in-line conn's contract: messages and
// replies cross the wire codec, Recv never waits for a reply that cannot
// come, and Close refuses new Sends but hands out queued replies before
// io.EOF, also when it races Sends.
func TestInlineSendRecvClose(t *testing.T) {
	h := &recordingHandler{}
	c := Inline(NewInstanceServer(1, h))
	cfg := &GroupConfig{Group: Epoched{ID: 1, Epoch: 1}, Seq: 1, Instances: []kvcache.InstanceID{1}, TP: 1}
	if reply := rpc(t, c, cfg); !reflect.DeepEqual(reply, Message(&Ack{Seq: 1, Instance: 1})) {
		t.Fatalf("config reply = %+v, want Ack seq 1", reply)
	}
	cmd := &PrefillCommand{Group: cfg.Group, Seq: 2, Requests: []RequestSpec{{ID: 7, Len: 3}}, Retention: []int32{0, 0, 0}}
	if reply := rpc(t, c, cmd); !reflect.DeepEqual(reply, Message(&Ack{Seq: 2, Instance: 1})) {
		t.Fatalf("prefill reply = %+v, want Ack seq 2", reply)
	}
	// The instance executed the decoded bytes, not the sender's value.
	if h.prefill == cmd || !reflect.DeepEqual(h.prefill, cmd) {
		t.Fatalf("handler saw %p %+v; want a decoded copy of %p %+v", h.prefill, h.prefill, cmd, cmd)
	}
	if _, err := c.Recv(); err == nil || err == io.EOF {
		t.Fatalf("Recv with no reply pending = %v, want a non-EOF error", err)
	}
	if err := c.Send(&Ack{Seq: 3, Instance: 1}); err == nil {
		t.Fatal("an instance accepted an Ack")
	}
	if err := c.Send(&ReleaseCommand{Group: cfg.Group, Seq: 4, Requests: []kvcache.RequestID{7}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Send(&ReleaseCommand{Group: cfg.Group, Seq: 5}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	if reply, err := c.Recv(); err != nil || reply.(*Ack).Seq != 4 {
		t.Fatalf("queued reply after Close = %+v, %v; want Ack seq 4", reply, err)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("drained Recv after Close = %v, want io.EOF", err)
	}
	c.Close() // idempotent

	// Close racing Sends: every Send either fails or queues exactly one
	// reply, and the queue drains before io.EOF.
	c = Inline(NewInstanceServer(2, NopHandler{}))
	const senders = 4
	sent := make([]int, senders)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg := &GroupConfig{Group: Epoched{ID: 1, Epoch: 1}, Seq: uint64(i), Instances: []kvcache.InstanceID{2}, TP: 1}
				if c.Send(msg) != nil {
					return
				}
				sent[w]++
			}
		}()
	}
	c.Close()
	wg.Wait()
	want := 0
	for _, n := range sent {
		want += n
	}
	for i := 0; i < want; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatalf("Recv %d of %d queued replies: %v", i, want, err)
		}
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("Recv past the queue = %v, want io.EOF", err)
	}
}

// tcpPair returns the two ends of a loopback TCP control-plane connection.
func tcpPair(t *testing.T) (Conn, Conn, func()) {
	t.Helper()
	l, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	a, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Accept: %v", r.err)
	}
	return a, r.c, func() { a.Close(); r.c.Close(); l.Close() }
}

func TestTransportRoundTrip(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b, cleanup := tcpPair(t)
		defer cleanup()

		want := &DecodeCommand{
			Group:    Epoched{ID: 2, Epoch: 8},
			Seq:      5,
			Requests: []RequestSpec{{ID: 10, Len: 100}, {ID: 12, Len: 50}},
			Masters:  []int32{1, 0},
		}
		if err := a.Send(want); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !reflect.DeepEqual(got, Message(want)) {
			t.Errorf("got %+v, want %+v", got, want)
		}

		// And the reverse direction.
		if err := b.Send(&Ack{Seq: 5, Instance: 1}); err != nil {
			t.Fatalf("reply Send: %v", err)
		}
		reply, err := a.Recv()
		if err != nil {
			t.Fatalf("reply Recv: %v", err)
		}
		if ack, ok := reply.(*Ack); !ok || ack.Seq != 5 {
			t.Errorf("reply = %+v, want Ack seq 5", reply)
		}
	})
}

func TestTransportOrderingUnderBurst(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b, cleanup := tcpPair(t)
		defer cleanup()

		const n = 200
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := a.Send(&Ack{Seq: uint64(i), Instance: 0}); err != nil {
					t.Errorf("Send %d: %v", i, err)
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			msg, err := b.Recv()
			if err != nil {
				t.Fatalf("Recv %d: %v", i, err)
			}
			ack := msg.(*Ack)
			if ack.Seq != uint64(i) {
				t.Fatalf("message %d arrived with seq %d: reordered", i, ack.Seq)
			}
		}
		wg.Wait()
	})
}

func TestTransportLargeMessage(t *testing.T) {
	// A 500K-token retention plan (the paper's longest LV-Eval requests)
	// must cross the framed transport intact.
	plan := make([]int32, 500_000)
	for i := range plan {
		plan[i] = int32(i % 8)
	}
	msg := &PrefillCommand{
		Group:     Epoched{ID: 1, Epoch: 1},
		Seq:       1,
		Requests:  []RequestSpec{{ID: 1, Len: len(plan)}},
		Retention: plan,
	}
	t.Run("tcp", func(t *testing.T) {
		a, b, cleanup := tcpPair(t)
		defer cleanup()
		errc := make(chan error, 1)
		go func() { errc <- a.Send(msg) }()
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("Send: %v", err)
		}
		pc := got.(*PrefillCommand)
		if len(pc.Retention) != len(plan) {
			t.Fatalf("retention came back with %d tokens, want %d", len(pc.Retention), len(plan))
		}
		for i := range plan {
			if pc.Retention[i] != plan[i] {
				t.Fatalf("retention[%d] = %d, want %d", i, pc.Retention[i], plan[i])
			}
		}
	})
}

func TestNetConnCloseUnblocksRecv(t *testing.T) {
	a, b, cleanup := tcpPair(t)
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err == nil {
		t.Fatal("Recv after close returned nil error")
	}
}

func TestNetConnConcurrentSendsDoNotInterleave(t *testing.T) {
	a, b, cleanup := tcpPair(t)
	defer cleanup()

	const n = 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				msg := &ReleaseCommand{
					Group:    Epoched{ID: GroupID(g + 1), Epoch: 1},
					Seq:      uint64(i),
					Requests: []kvcache.RequestID{kvcache.RequestID(g*1000 + i)},
				}
				if err := a.Send(msg); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(g)
	}
	got := 0
	for got < 4*n {
		msg, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv after %d messages: %v", got, err)
		}
		rc, ok := msg.(*ReleaseCommand)
		if !ok {
			t.Fatalf("frame corrupted: got %T", msg)
		}
		wantReq := kvcache.RequestID(int(rc.Group.ID-1)*1000) + kvcache.RequestID(rc.Seq)
		if rc.Requests[0] != wantReq {
			t.Fatalf("frame corrupted: group %d seq %d carries request %d",
				rc.Group.ID, rc.Seq, rc.Requests[0])
		}
		got++
	}
	wg.Wait()
}
