package analyze

import (
	"sort"
	"strings"
	"testing"
	"time"

	"loongserve/internal/obs"
)

// byTime re-sorts a concatenation of chains into collector order (stable,
// so same-instant events keep their lifecycle order).
func byTime(ev []obs.Event) []obs.Event {
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
	return ev
}

func TestAuditCleanStream(t *testing.T) {
	ev := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev, chain(2, 7, 1, 0.5, 0.6, 0.7, 1.5, 3.0)...)
	if vs := Audit(byTime(ev)); len(vs) != 0 {
		t.Fatalf("clean stream flagged: %v", vs)
	}
}

func TestAuditReenqueueIsLegal(t *testing.T) {
	ev := []obs.Event{
		{At: at(0), Kind: obs.KindEnqueue, Replica: -1, Session: 3, Request: 8, Tokens: 256, A: 32},
		{At: at(0.2), Kind: obs.KindRoute, Replica: 1, Session: 3, Request: 8},
		{At: at(1.2), Kind: obs.KindEnqueue, Replica: -1, Session: 3, Request: 8, Tokens: 256, A: 32},
		{At: at(1.2), Kind: obs.KindRoute, Replica: 2, Session: 3, Request: 8},
		{At: at(1.4), Kind: obs.KindCacheLookup, Replica: 2, Session: 3, Request: 8, Tokens: 0, A: 256},
		{At: at(3.0), Kind: obs.KindFinish, Replica: 2, Session: 3, Request: 8, Tokens: 32, A: int64(at(2.0)), B: 0},
	}
	if vs := Audit(ev); len(vs) != 0 {
		t.Fatalf("legal re-enqueue flagged: %v", vs)
	}
}

// want exactly one violation of the given kind.
func wantViolation(t *testing.T, vs []Violation, kind ViolationKind) Violation {
	t.Helper()
	if len(vs) != 1 {
		t.Fatalf("got %d violations %v, want exactly one %s", len(vs), vs, kind)
	}
	if vs[0].Kind != kind {
		t.Fatalf("got %s (%s), want %s", vs[0].Kind, vs[0].Detail, kind)
	}
	return vs[0]
}

func TestAuditDroppedFinish(t *testing.T) {
	ev := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0)
	ev = ev[:len(ev)-1] // drop the Finish
	v := wantViolation(t, Audit(ev), MissingFinish)
	if v.Request != 1 {
		t.Fatalf("violation names request %d, want 1", v.Request)
	}
}

func TestAuditOutOfOrderRoute(t *testing.T) {
	good := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0)
	// Splice the Route ahead of the Enqueue (same timestamps, so the
	// monotone check stays quiet and the lifecycle check must catch it).
	ev := []obs.Event{good[1], good[0], good[2], good[3]}
	ev[0].At, ev[1].At = at(0), at(0)
	vs := Audit(ev)
	if len(vs) == 0 {
		t.Fatal("out-of-order route not flagged")
	}
	if vs[0].Kind != RouteBeforeEnqueue {
		t.Fatalf("first violation = %s, want %s", vs[0].Kind, RouteBeforeEnqueue)
	}
}

func TestAuditCorruptions(t *testing.T) {
	base := func() []obs.Event { return chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0) }
	cases := []struct {
		name   string
		mutate func([]obs.Event) []obs.Event
		want   ViolationKind
	}{
		{"duplicate finish", func(ev []obs.Event) []obs.Event {
			return append(ev, ev[len(ev)-1])
		}, DuplicateFinish},
		{"duplicate enqueue while delivered", func(ev []obs.Event) []obs.Event {
			dup := ev[0]
			dup.At = at(1.5)
			return append(ev[:3:3], dup, ev[3])
		}, DuplicateEnqueue},
		{"lookup before route", func(ev []obs.Event) []obs.Event {
			return []obs.Event{ev[0], ev[2], ev[1], ev[3]}
		}, LookupBeforeRoute},
		{"finish without delivery", func(ev []obs.Event) []obs.Event {
			return []obs.Event{ev[0], ev[1], ev[3]}
		}, FinishBeforeDeliver},
		{"non-monotonic time", func(ev []obs.Event) []obs.Event {
			ev[2].At = at(0.05) // lookup timestamped before its route
			return ev
		}, NonMonotonicTime},
		{"cache hit exceeds input", func(ev []obs.Event) []obs.Event {
			ev[2].Tokens = int(ev[2].A) + 1
			return ev
		}, CacheHitExceedsInput},
		{"replica mismatch", func(ev []obs.Event) []obs.Event {
			ev[3].Replica = 5
			return ev
		}, ReplicaMismatch},
		{"arrival mismatch", func(ev []obs.Event) []obs.Event {
			ev[3].B = int64(at(0.01))
			return ev
		}, ArrivalMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := Audit(tc.mutate(base()))
			found := false
			for _, v := range vs {
				if v.Kind == tc.want {
					found = true
				}
			}
			if !found {
				t.Fatalf("corruption not flagged as %s; got %v", tc.want, vs)
			}
		})
	}
}

func TestAuditRetiredReplica(t *testing.T) {
	ev := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev,
		obs.Event{At: at(2.5), Kind: obs.KindRetire, Replica: 0, Label: "test"},
	)
	ev = append(ev, chain(2, 7, 0, 3.0, 3.1, 3.2, 3.5, 4.0)...) // routed to retired 0
	vs := Audit(ev)
	found := 0
	for _, v := range vs {
		if v.Kind == EventOnRetiredReplica {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("events on retired replica not flagged; got %v", vs)
	}
}

func TestAuditMigrateExceedsSessionKV(t *testing.T) {
	ev := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0) // input 1000, output 100 → ctx 1100
	ev = append(ev, obs.Event{
		At: at(2.5), Kind: obs.KindMigrate, Replica: 0, Session: 7,
		Tokens: 1101, A: 1, Label: "drain",
	})
	wantViolation(t, Audit(ev), MigrateExceedsSessionKV)

	// At exactly the materialized context the move is legal.
	ev[len(ev)-1].Tokens = 1100
	if vs := Audit(ev); len(vs) != 0 {
		t.Fatalf("bound migration flagged: %v", vs)
	}
}

// TestAuditCrashHedgeRecoverClean is the well-formed fault story: request 1
// straggles on replica 0, hedges to replica 1, the hedge wins and finishes
// under the primary identity; replica 0 then crashes with request 2 in
// flight, which is recovered and re-runs on replica 1. Zero violations.
func TestAuditCrashHedgeRecoverClean(t *testing.T) {
	ev := []obs.Event{
		// Request 1: delivered to replica 0, hedged to replica 1, hedge wins.
		{At: at(0), Kind: obs.KindEnqueue, Replica: -1, Session: 7, Request: 1, Tokens: 1000, A: 100},
		{At: at(0.1), Kind: obs.KindRoute, Replica: 0, Session: 7, Request: 1},
		{At: at(0.2), Kind: obs.KindCacheLookup, Replica: 0, Session: 7, Request: 1, Tokens: 0, A: 1000},
		{At: at(0.8), Kind: obs.KindHedgeLaunch, Replica: 1, Session: 7, Request: 1, Tokens: 1000, A: 0},
		{At: at(0.8), Kind: obs.KindCacheLookup, Replica: 1, Session: 7, Request: 1, Tokens: 0, A: 1000},
		{At: at(1.5), Kind: obs.KindHedgeWin, Replica: 1, Session: 7, Request: 1, A: 0},
		{At: at(1.5), Kind: obs.KindFinish, Replica: 1, Session: 7, Request: 1, Tokens: 100, A: int64(at(1.4)), B: int64(at(0))},
		// Request 2: in flight on replica 0 when it crashes; recovered onto 1.
		{At: at(1.0), Kind: obs.KindEnqueue, Replica: -1, Session: 8, Request: 2, Tokens: 500, A: 50},
		{At: at(1.1), Kind: obs.KindRoute, Replica: 0, Session: 8, Request: 2},
		{At: at(1.2), Kind: obs.KindCacheLookup, Replica: 0, Session: 8, Request: 2, Tokens: 0, A: 500},
		{At: at(2.0), Kind: obs.KindCrash, Replica: 0, Tokens: 1, A: 800},
		{At: at(2.0), Kind: obs.KindRecover, Replica: -1, Session: 8, Request: 2, Tokens: 0, A: 0},
		{At: at(2.0), Kind: obs.KindEnqueue, Replica: -1, Session: 8, Request: 2, Tokens: 500, A: 50},
		{At: at(2.0), Kind: obs.KindRoute, Replica: 1, Session: 8, Request: 2},
		{At: at(2.1), Kind: obs.KindCacheLookup, Replica: 1, Session: 8, Request: 2, Tokens: 0, A: 500},
		{At: at(3.0), Kind: obs.KindFinish, Replica: 1, Session: 8, Request: 2, Tokens: 50, A: int64(at(2.8)), B: int64(at(1.0))},
	}
	if vs := Audit(byTime(ev)); len(vs) != 0 {
		t.Fatalf("clean crash/hedge/recover stream flagged: %v", vs)
	}
}

func TestAuditEventAfterCrash(t *testing.T) {
	ev := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev,
		obs.Event{At: at(2.5), Kind: obs.KindCrash, Replica: 0, Tokens: 0, A: 0},
		// A lifecycle event from the corpse: the gated sink failed.
		obs.Event{At: at(3.0), Kind: obs.KindDrain, Replica: 0},
	)
	v := wantViolation(t, Audit(ev), EventAfterCrash)
	if v.Replica != 0 {
		t.Fatalf("violation names replica %d, want 0", v.Replica)
	}

	// Migration INTO a crashed replica is the same defect.
	ev[len(ev)-1] = obs.Event{At: at(3.0), Kind: obs.KindMigrate, Replica: 1, Session: 7, Tokens: 10, A: 0, Label: "drain"}
	wantViolation(t, Audit(ev), EventAfterCrash)

	// And so is a second crash of the same replica.
	ev[len(ev)-1] = obs.Event{At: at(3.0), Kind: obs.KindCrash, Replica: 0}
	wantViolation(t, Audit(ev), EventAfterCrash)
}

func TestAuditRecoverWithoutCrash(t *testing.T) {
	ev := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev, obs.Event{
		At: at(2.5), Kind: obs.KindRecover, Replica: -1, Session: 9, Request: 3, A: 1,
	})
	v := wantViolation(t, Audit(ev), RecoverWithoutCrash)
	if v.Request != 3 {
		t.Fatalf("violation names request %d, want 3", v.Request)
	}
}

func TestAuditDuplicateHedgeWin(t *testing.T) {
	ev := []obs.Event{
		{At: at(0), Kind: obs.KindEnqueue, Replica: -1, Session: 7, Request: 1, Tokens: 1000, A: 100},
		{At: at(0.1), Kind: obs.KindRoute, Replica: 0, Session: 7, Request: 1},
		{At: at(0.2), Kind: obs.KindCacheLookup, Replica: 0, Session: 7, Request: 1, Tokens: 0, A: 1000},
		{At: at(0.8), Kind: obs.KindHedgeLaunch, Replica: 1, Session: 7, Request: 1, Tokens: 1000, A: 0},
		{At: at(0.9), Kind: obs.KindCacheLookup, Replica: 1, Session: 7, Request: 1, Tokens: 0, A: 1000},
		{At: at(1.5), Kind: obs.KindHedgeWin, Replica: 1, Session: 7, Request: 1, A: 0},
		{At: at(1.5), Kind: obs.KindHedgeWin, Replica: 1, Session: 7, Request: 1, A: 0},
		{At: at(1.5), Kind: obs.KindFinish, Replica: 1, Session: 7, Request: 1, Tokens: 100, A: int64(at(1.4)), B: int64(at(0))},
	}
	wantViolation(t, Audit(ev), DuplicateHedgeWin)
}

func TestAuditorOnlineMatchesPostHoc(t *testing.T) {
	ev := chain(1, 7, 0, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev, chain(2, 7, 1, 0.5, 0.6, 0.7, 1.5, 3.0)...)
	ev = byTime(ev)
	ev = ev[:len(ev)-1] // drop last Finish
	a := NewAuditor()
	for _, e := range ev {
		a.Emit(e) // online, as a Tee'd Sink would drive it
	}
	online := a.Finalize()
	posthoc := Audit(ev)
	if len(online) != len(posthoc) || len(online) != 1 || online[0].Kind != posthoc[0].Kind {
		t.Fatalf("online %v != post-hoc %v", online, posthoc)
	}
}

// TestAuditDirectoryColdClean is the well-formed cache-directory story:
// blocks become resident, one spills to the cold tier on eviction, a
// content route claims exactly what the directory holds, the cold run is
// fetched back, and a crash wipes the dead replica's entries with a
// negative delta. Zero violations.
func TestAuditDirectoryColdClean(t *testing.T) {
	ev := chain(1, 7, 1, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev, chain(2, 7, 0, 2.1, 2.2, 2.3, 2.5, 2.6)...)
	ev = append(ev,
		obs.Event{At: at(0.3), Kind: obs.KindDirectoryUpdate, Replica: 1, Tokens: 64, A: 64, Label: "add"},
		obs.Event{At: at(0.4), Kind: obs.KindDirectoryUpdate, Replica: 1, Tokens: 64, A: 128, Label: "add"},
		// One block evicted from replica 1: directory retracts, cold gains.
		obs.Event{At: at(0.5), Kind: obs.KindDirectoryUpdate, Replica: 1, Tokens: -64, A: 64, Label: "remove"},
		obs.Event{At: at(0.5), Kind: obs.KindColdSpill, Replica: 1, Tokens: 64, A: 64, B: 1},
		// Routing claims no more than the 64 tokens still resident on 1.
		obs.Event{At: at(0.6), Kind: obs.KindContentRoute, Replica: 1, Session: 7, Request: 5, Tokens: 64, A: 1, B: 2},
		// The cold run is fetched back (a copy; the tier keeps the block).
		obs.Event{At: at(0.7), Kind: obs.KindColdFetch, Replica: 1, Session: 7, Request: 5, Tokens: 64, A: 1000, B: 5000},
		// Replica 0 holds 32 tokens, crashes, and the wipe retracts them.
		obs.Event{At: at(2.7), Kind: obs.KindDirectoryUpdate, Replica: 0, Tokens: 32, A: 32, Label: "add"},
		obs.Event{At: at(2.8), Kind: obs.KindCrash, Replica: 0, Tokens: 0, A: 32},
		obs.Event{At: at(2.8), Kind: obs.KindDirectoryUpdate, Replica: 0, Tokens: -32, A: 0, Label: "wipe"},
	)
	if vs := Audit(byTime(ev)); len(vs) != 0 {
		t.Fatalf("clean directory/cold stream flagged: %v", vs)
	}
}

func TestAuditRouteToNonresident(t *testing.T) {
	ev := chain(1, 7, 1, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev,
		obs.Event{At: at(2.1), Kind: obs.KindDirectoryUpdate, Replica: 1, Tokens: 64, A: 64, Label: "add"},
		// The router claims 65 overlap tokens where only 64 are resident.
		obs.Event{At: at(2.2), Kind: obs.KindContentRoute, Replica: 1, Session: 7, Request: 1, Tokens: 65, A: 0, B: 2},
	)
	v := wantViolation(t, Audit(ev), RouteToNonresident)
	if v.Replica != 1 {
		t.Fatalf("violation names replica %d, want 1", v.Replica)
	}

	// At exactly the resident total the claim is legal.
	ev[len(ev)-1].Tokens = 64
	if vs := Audit(ev); len(vs) != 0 {
		t.Fatalf("bound claim flagged: %v", vs)
	}
}

func TestAuditFetchWithoutSpill(t *testing.T) {
	ev := chain(1, 7, 1, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev,
		obs.Event{At: at(2.1), Kind: obs.KindColdSpill, Replica: 0, Tokens: 64, A: 64, B: 1},
		// A fetch of more than the tier ever received.
		obs.Event{At: at(2.2), Kind: obs.KindColdFetch, Replica: 1, Session: 7, Request: 1, Tokens: 128, A: 1000, B: 5000},
	)
	wantViolation(t, Audit(ev), FetchWithoutSpill)

	// After a cold eviction retracts the block, even the original 64 is gone.
	ev[len(ev)-1].Tokens = 64
	ev = append(ev[:len(ev)-1],
		obs.Event{At: at(2.15), Kind: obs.KindDirectoryUpdate, Replica: -1, Tokens: -64, A: 0, Label: "cold-evict"},
		ev[len(ev)-1])
	wantViolation(t, Audit(ev), FetchWithoutSpill)
}

func TestAuditDirectoryEntryAfterCrash(t *testing.T) {
	ev := chain(1, 7, 1, 0, 0.1, 0.2, 1.0, 2.0)
	ev = append(ev,
		obs.Event{At: at(2.1), Kind: obs.KindDirectoryUpdate, Replica: 0, Tokens: 64, A: 64, Label: "add"},
		obs.Event{At: at(2.2), Kind: obs.KindCrash, Replica: 0, Tokens: 0, A: 64},
		// The mandated wipe is legal even though the replica just crashed...
		obs.Event{At: at(2.2), Kind: obs.KindDirectoryUpdate, Replica: 0, Tokens: -64, A: 0, Label: "wipe"},
		// ...but a positive delta on the corpse is a defect.
		obs.Event{At: at(2.3), Kind: obs.KindDirectoryUpdate, Replica: 0, Tokens: 32, A: 32, Label: "add"},
	)
	v := wantViolation(t, Audit(ev), DirectoryEntryAfterCrash)
	if v.Replica != 0 {
		t.Fatalf("violation names replica %d, want 0", v.Replica)
	}
}

func TestWriteViolations(t *testing.T) {
	var b strings.Builder
	if err := WriteViolations(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "PASS") {
		t.Fatalf("clean verdict missing PASS: %q", b.String())
	}
	b.Reset()
	vs := []Violation{{Kind: MissingFinish, Request: 3, Replica: -1, Detail: "x"}}
	if err := WriteViolations(&b, vs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "FAIL (1 violations)") || !strings.Contains(b.String(), "missing-finish") {
		t.Fatalf("verdict missing detail: %q", b.String())
	}
	_ = time.Second
}
