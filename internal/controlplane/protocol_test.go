package controlplane

import (
	"strings"
	"sync"
	"testing"

	"loongserve/internal/kvcache"
)

// testCluster wires a manager to n mirror instances over in-line conns.
type testCluster struct {
	m       *Manager
	mirrors []*MirrorHandler
	servers []*InstanceServer
}

func newTestCluster(t *testing.T, n, capacity int) *testCluster {
	t.Helper()
	tc := &testCluster{m: NewManager()}
	for i := 0; i < n; i++ {
		mir := NewMirrorHandler(kvcache.InstanceID(i), capacity)
		srv := NewInstanceServer(kvcache.InstanceID(i), mir)
		tc.m.AddInstance(kvcache.InstanceID(i), Inline(srv))
		tc.mirrors = append(tc.mirrors, mir)
		tc.servers = append(tc.servers, srv)
	}
	t.Cleanup(func() { tc.m.Close() })
	return tc
}

func ids(ns ...int) []kvcache.InstanceID {
	out := make([]kvcache.InstanceID, len(ns))
	for i, n := range ns {
		out[i] = kvcache.InstanceID(n)
	}
	return out
}

func TestProtocolLifecycle(t *testing.T) {
	tc := newTestCluster(t, 4, 1000)

	// Fig 6 lifecycle: prefill at DoP 4 with a proactive scale-down plan
	// retaining everything on instances 0 and 1, scale down, decode with
	// two masters, scale up, decode more, release.
	if err := tc.m.CreateGroup(1, ids(0, 1, 2, 3), 2); err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}

	// 12 tokens across two requests; first 8 retained on ring pos 0,
	// last 4 on ring pos 1 (token-granularity placement, §4.1).
	plan := make([]int32, 12)
	for i := 8; i < 12; i++ {
		plan[i] = 1
	}
	reqs := []RequestSpec{{ID: 100, Len: 7}, {ID: 101, Len: 5}}
	if err := tc.m.Prefill(1, reqs, plan); err != nil {
		t.Fatalf("Prefill: %v", err)
	}
	// Request 100 holds tokens 0-6: 7 on pos 0. Request 101 holds tokens
	// 7-11: 1 on pos 0, 4 on pos 1.
	if got := tc.mirrors[0].Pool.HeldBy(100); got != 7 {
		t.Errorf("instance 0 holds %d tokens of r100, want 7", got)
	}
	if got := tc.mirrors[0].Pool.HeldBy(101); got != 1 {
		t.Errorf("instance 0 holds %d tokens of r101, want 1", got)
	}
	if got := tc.mirrors[1].Pool.HeldBy(101); got != 4 {
		t.Errorf("instance 1 holds %d tokens of r101, want 4", got)
	}
	for _, i := range []int{2, 3} {
		if got := tc.mirrors[i].Pool.TotalUsed(); got != 0 {
			t.Errorf("instance %d holds %d tokens after proactive scale-down, want 0", i, got)
		}
	}

	// Scale down to the two retaining instances.
	if err := tc.m.Scale(1, ScaleDown, ids(0, 1)); err != nil {
		t.Fatalf("Scale down: %v", err)
	}
	if ep, ok := tc.servers[0].CachedEpoch(1); !ok || ep != 2 {
		t.Errorf("instance 0 cached epoch = %d,%v; want 2,true", ep, ok)
	}
	if _, ok := tc.servers[3].CachedEpoch(1); ok {
		t.Error("instance 3 still caches the group after leaving")
	}

	// Three decode iterations, masters split across the two survivors.
	for i := 0; i < 3; i++ {
		dec := []RequestSpec{{ID: 100, Len: 7 + i}, {ID: 101, Len: 5 + i}}
		if err := tc.m.Decode(1, dec, []int32{0, 1}); err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
	}
	if got := tc.mirrors[0].Pool.HeldBy(100); got != 10 {
		t.Errorf("instance 0 holds %d tokens of r100 after 3 decodes, want 10", got)
	}
	if got := tc.mirrors[1].Pool.HeldBy(101); got != 7 {
		t.Errorf("instance 1 holds %d tokens of r101 after 3 decodes, want 7", got)
	}

	// Scale up adds instance 2 back; nothing migrates.
	if err := tc.m.Scale(1, ScaleUp, ids(0, 1, 2)); err != nil {
		t.Fatalf("Scale up: %v", err)
	}
	if got := tc.mirrors[2].Pool.TotalUsed(); got != 0 {
		t.Errorf("scale-up migrated %d tokens onto instance 2, want 0", got)
	}
	// New master lands on the fresh instance.
	if err := tc.m.Decode(1, []RequestSpec{{ID: 100, Len: 10}, {ID: 101, Len: 7}}, []int32{2, 2}); err != nil {
		t.Fatalf("Decode after scale-up: %v", err)
	}
	if got := tc.mirrors[2].Pool.TotalUsed(); got != 2 {
		t.Errorf("instance 2 holds %d tokens after mastering 2 requests, want 2", got)
	}

	// Release both requests everywhere.
	if err := tc.m.Release(1, []kvcache.RequestID{100, 101}); err != nil {
		t.Fatalf("Release: %v", err)
	}
	for i, mir := range tc.mirrors {
		if got := mir.Pool.TotalUsed(); got != 0 {
			t.Errorf("instance %d still holds %d tokens after release", i, got)
		}
	}
}

func TestProtocolMetadataCachedAcrossCommands(t *testing.T) {
	tc := newTestCluster(t, 4, 10_000)
	if err := tc.m.CreateGroup(1, ids(0, 1, 2, 3), 2); err != nil {
		t.Fatal(err)
	}
	const iters = 50
	reqs := []RequestSpec{{ID: 1, Len: 16}}
	if err := tc.m.Prefill(1, reqs, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		if err := tc.m.Decode(1, []RequestSpec{{ID: 1, Len: 16 + i}}, []int32{0}); err != nil {
			t.Fatal(err)
		}
	}
	st := tc.m.Stats()
	if st.ConfigsSent != 4 {
		t.Errorf("ConfigsSent = %d, want 4 (once per member; commands reuse the cache)", st.ConfigsSent)
	}
	if want := (iters + 1) * 4; st.Commands != want {
		t.Errorf("Commands = %d, want %d", st.Commands, want)
	}
	if st.Naks != 0 || st.Resends != 0 {
		t.Errorf("unexpected Naks=%d Resends=%d on the happy path", st.Naks, st.Resends)
	}
}

func TestProtocolCacheMissRecovery(t *testing.T) {
	tc := newTestCluster(t, 2, 1000)
	if err := tc.m.CreateGroup(1, ids(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tc.m.Prefill(1, []RequestSpec{{ID: 1, Len: 4}}, nil); err != nil {
		t.Fatal(err)
	}

	// Simulate an instance restart losing its metadata cache: clear the
	// live server's cache while the manager still believes the instance
	// holds epoch 1.
	srv := tc.servers[1]
	srv.mu.Lock()
	srv.cache = make(map[GroupID]*GroupConfig)
	srv.mu.Unlock()

	// Next command hits the cleared cache, gets NakUnknownGroup, and the
	// manager recovers by resending the config.
	if err := tc.m.Decode(1, []RequestSpec{{ID: 1, Len: 4}}, []int32{1}); err != nil {
		t.Fatalf("Decode after instance restart: %v", err)
	}
	st := tc.m.Stats()
	if st.Naks != 1 {
		t.Errorf("Naks = %d, want 1 (one cache miss)", st.Naks)
	}
	if st.Resends != 1 {
		t.Errorf("Resends = %d, want 1", st.Resends)
	}
	if got := tc.mirrors[1].Pool.HeldBy(1); got != 1+2 {
		// 2 tokens from the uniform prefill of 4 over 2 instances, +1
		// from the mastered decode.
		t.Errorf("instance 1 holds %d tokens, want 3", got)
	}
}

func TestProtocolScaleValidation(t *testing.T) {
	tc := newTestCluster(t, 3, 100)
	if err := tc.m.CreateGroup(1, ids(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tc.m.Scale(1, ScaleUp, ids(0, 1, 9)); err == nil {
		t.Error("scale onto unknown instance accepted")
	}
	if err := tc.m.Scale(99, ScaleUp, ids(0, 1, 2)); err == nil {
		t.Error("scale of unknown group accepted")
	}
	if err := tc.m.Prefill(99, []RequestSpec{{ID: 1, Len: 1}}, nil); err == nil {
		t.Error("prefill of unknown group accepted")
	}
	// Manager-side validation rejects malformed retention before sending.
	if err := tc.m.Prefill(1, []RequestSpec{{ID: 1, Len: 4}}, []int32{0, 0, 0, 7}); err == nil {
		t.Error("out-of-group retention accepted")
	}
	if st := tc.m.Stats(); st.Commands != 0 {
		t.Errorf("invalid commands reached the wire: %d", st.Commands)
	}
}

func TestProtocolDuplicateGroup(t *testing.T) {
	tc := newTestCluster(t, 2, 100)
	if err := tc.m.CreateGroup(1, ids(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	err := tc.m.CreateGroup(1, ids(0), 1)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate group error = %v", err)
	}
}

func TestProtocolTwoGroupsDisjointInstances(t *testing.T) {
	tc := newTestCluster(t, 4, 1000)
	if err := tc.m.CreateGroup(1, ids(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tc.m.CreateGroup(2, ids(2, 3), 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = tc.m.Prefill(1, []RequestSpec{{ID: 1, Len: 10}}, nil)
	}()
	go func() {
		defer wg.Done()
		errs[1] = tc.m.Prefill(2, []RequestSpec{{ID: 2, Len: 10}}, nil)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent prefill %d: %v", i+1, err)
		}
	}
	if got := tc.mirrors[0].Pool.HeldBy(1) + tc.mirrors[1].Pool.HeldBy(1); got != 10 {
		t.Errorf("group 1 retained %d tokens of r1, want 10", got)
	}
	if got := tc.mirrors[2].Pool.HeldBy(2) + tc.mirrors[3].Pool.HeldBy(2); got != 10 {
		t.Errorf("group 2 retained %d tokens of r2, want 10", got)
	}
}

func TestProtocolOverTCP(t *testing.T) {
	// The same lifecycle as TestProtocolLifecycle's core, over loopback
	// TCP with framed messages.
	l, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 3
	m := NewManager()
	mirrors := make([]*MirrorHandler, n)
	var wg sync.WaitGroup

	accepted := make(chan Conn, n)
	go func() {
		for i := 0; i < n; i++ {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < n; i++ {
		mc, err := Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		ic := <-accepted
		mirrors[i] = NewMirrorHandler(kvcache.InstanceID(i), 10_000)
		srv := NewInstanceServer(kvcache.InstanceID(i), mirrors[i])
		m.AddInstance(kvcache.InstanceID(i), mc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Serve(ic) // exits with a transport error after Close
		}()
	}
	defer func() {
		m.Close()
		wg.Wait()
	}()

	if err := m.CreateGroup(1, ids(0, 1, 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Prefill(1, []RequestSpec{{ID: 1, Len: 9}}, nil); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, mir := range mirrors {
		total += mir.Pool.HeldBy(1)
	}
	if total != 9 {
		t.Errorf("cluster retains %d tokens, want 9", total)
	}
	if err := m.Scale(1, ScaleDown, ids(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Decode(1, []RequestSpec{{ID: 1, Len: 9}}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(1, []kvcache.RequestID{1}); err != nil {
		t.Fatal(err)
	}
	if got := mirrors[0].Pool.TotalUsed(); got != 0 {
		t.Errorf("instance 0 holds %d tokens after release", got)
	}
}
