package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// TestOpenLoopUnchangedByDefault pins the satellite requirement that adding
// closed-loop mode did not disturb the default open-loop trace: the
// script-based SessionTrace must emit exactly what the historical inline
// generator emitted (the golden values below were captured from the
// pre-script implementation at seed 7).
func TestOpenLoopUnchangedByDefault(t *testing.T) {
	cfg := DefaultSessionConfig()
	if cfg.ClosedLoop {
		t.Fatal("DefaultSessionConfig is closed-loop; open-loop must be the default")
	}
	trace := SessionTrace(cfg, 7)
	scripts := SessionScripts(cfg, 7)
	flat := OpenLoopTrace(scripts)
	if len(trace) != len(flat) {
		t.Fatalf("SessionTrace %d requests, OpenLoopTrace %d", len(trace), len(flat))
	}
	for i := range trace {
		if !reflect.DeepEqual(trace[i], flat[i]) {
			t.Fatalf("request %d differs: trace %+v, flattened scripts %+v", i, trace[i], flat[i])
		}
	}
	if NumRequests(scripts) != len(trace) {
		t.Fatalf("NumRequests %d != %d", NumRequests(scripts), len(trace))
	}
}

// TestSessionScriptEntries checks Entry reconstructs the context growth of
// a conversation turn by turn.
func TestSessionScriptEntries(t *testing.T) {
	s := SessionScript{
		ID: 3, Group: 2, SystemTokens: 100, Start: 1.5,
		Turns: []SessionTurn{
			{UserTokens: 10, ReplyTokens: 20, Think: 2},
			{UserTokens: 30, ReplyTokens: 40, Think: 1},
			{UserTokens: 5, ReplyTokens: 6},
		},
	}
	want := []Entry{
		{InputLen: 110, OutputLen: 20, SessionID: 3, Turn: 0, PromptGroup: 2, SharedLen: 100, PrefixLen: 100},
		{InputLen: 160, OutputLen: 40, SessionID: 3, Turn: 1, PromptGroup: 2, SharedLen: 100, PrefixLen: 130},
		{InputLen: 205, OutputLen: 6, SessionID: 3, Turn: 2, PromptGroup: 2, SharedLen: 100, PrefixLen: 200},
	}
	for i, w := range want {
		got := s.Entry(i)
		got.Blocks = nil // chains are covered by blockhash_test.go
		if !reflect.DeepEqual(got, w) {
			t.Errorf("Entry(%d) = %+v, want %+v", i, got, w)
		}
	}
}

// TestClosedLoopTracePanics: a closed-loop workload has no static trace.
func TestClosedLoopTracePanics(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.ClosedLoop = true
	defer func() {
		if recover() == nil {
			t.Fatal("SessionTrace accepted a closed-loop config")
		}
	}()
	SessionTrace(cfg, 1)
}

// TestBurstyArrivals checks the burst warp: deterministic, preserves the
// turn structure, and actually concentrates session starts into the high-
// rate half-periods.
func TestBurstyArrivals(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.Sessions = 400
	cfg.BurstFactor = 4
	cfg.BurstPeriod = 40

	a := SessionScripts(cfg, 11)
	b := SessionScripts(cfg, 11)
	for i := range a {
		if a[i].Start != b[i].Start || len(a[i].Turns) != len(b[i].Turns) {
			t.Fatalf("bursty scripts not deterministic at session %d", i)
		}
	}

	// Same seed without bursts: identical turn structure, different starts.
	plain := cfg
	plain.BurstFactor = 0
	p := SessionScripts(plain, 11)
	if len(p) != len(a) {
		t.Fatalf("burst changed session count: %d vs %d", len(a), len(p))
	}
	for i := range a {
		if len(a[i].Turns) != len(p[i].Turns) {
			t.Fatalf("burst changed turn count of session %d", i)
		}
		for j := range a[i].Turns {
			if a[i].Turns[j] != p[i].Turns[j] {
				t.Fatalf("burst changed turn %d of session %d", j, i)
			}
		}
	}

	// Starts must skew into the first (high-rate) half of each period:
	// hi/(hi+lo) = factor^2/(factor^2+1) ≈ 94% for factor 4.
	inHigh := 0
	for i := range a {
		if math.Mod(a[i].Start, cfg.BurstPeriod) < cfg.BurstPeriod/2 {
			inHigh++
		}
	}
	frac := float64(inHigh) / float64(len(a))
	if frac < 0.75 {
		t.Fatalf("only %.0f%% of bursty sessions start in the high-rate phase", frac*100)
	}

	// Monotone non-decreasing starts.
	for i := 1; i < len(a); i++ {
		if a[i].Start < a[i-1].Start {
			t.Fatalf("session %d starts before session %d", i, i-1)
		}
	}
}

// TestBurstValidation covers the new config error paths.
func TestBurstValidation(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.BurstFactor = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative BurstFactor accepted")
	}
	cfg.BurstFactor = 3
	cfg.BurstPeriod = 0
	if err := cfg.Validate(); err == nil {
		t.Error("BurstFactor without BurstPeriod accepted")
	}
	cfg.BurstPeriod = 30
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid burst config rejected: %v", err)
	}
}

// TestLongDocSessions covers the long-document mix: the drawn share, the
// Entry decomposition (the document counts toward the session-private
// prefix but not the shared head), and the hash chain.
func TestLongDocSessions(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.Sessions = 200
	cfg.LongFrac = 0.3
	cfg.LongDocTokens = 20_000
	cfg.LongDocMax = 50_000
	scripts := SessionScripts(cfg, 7)

	long := 0
	for i := range scripts {
		s := &scripts[i]
		if s.DocTokens == 0 {
			continue
		}
		long++
		if s.DocTokens < BlockTokens || s.DocTokens > cfg.LongDocMax {
			t.Fatalf("session %d: doc %d outside [%d, %d]", s.ID, s.DocTokens, BlockTokens, cfg.LongDocMax)
		}
		e := s.Entry(0)
		if e.SharedLen != s.SystemTokens {
			t.Fatalf("session %d: SharedLen %d includes the private document", s.ID, e.SharedLen)
		}
		if e.PrefixLen != s.SystemTokens+s.DocTokens {
			t.Fatalf("session %d: turn-0 PrefixLen %d, want system %d + doc %d", s.ID, e.PrefixLen, s.SystemTokens, s.DocTokens)
		}
		if e.InputLen != s.SystemTokens+s.DocTokens+s.Turns[0].UserTokens {
			t.Fatalf("session %d: turn-0 InputLen %d", s.ID, e.InputLen)
		}
		if want := (e.InputLen + e.OutputLen) / BlockTokens; len(e.Blocks) != want {
			t.Fatalf("session %d: %d chain blocks, want %d", s.ID, len(e.Blocks), want)
		}
	}
	// The drawn share concentrates near LongFrac.
	if frac := float64(long) / float64(len(scripts)); frac < 0.18 || frac > 0.45 {
		t.Fatalf("long-document share %.2f far from configured 0.30", frac)
	}
}

// TestLongDocDefaultClamp: LongDocMax 0 falls back to 4x the median.
func TestLongDocDefaultClamp(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.Sessions = 300
	cfg.LongFrac = 1
	cfg.LongDocTokens = 1_000
	scripts := SessionScripts(cfg, 3)
	for i := range scripts {
		if d := scripts[i].DocTokens; d < BlockTokens || d > 4_000 {
			t.Fatalf("session %d: doc %d outside default clamp", scripts[i].ID, d)
		}
	}
}

// TestLongDocDisabledPathGolden guards the "RNG-stable when off"
// invariant for real: the fingerprint literal below was computed on the
// tree *before* the long-document feature existed (same config, same
// seed, same fields). If the LongFrac==0 path ever consumes an extra RNG
// draw — say the doc-length sample moves outside its enable guard —
// every historical trace silently changes and this hash catches it.
func TestLongDocDisabledPathGolden(t *testing.T) {
	const preLongDocFingerprint = uint64(0x68e21f34e3045c8d)
	cfg := DefaultSessionConfig()
	cfg.Sessions = 50
	h := fnv.New64a()
	for _, tr := range SessionTrace(cfg, 42) {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d\n", tr.Arrival, tr.InputLen, tr.OutputLen, tr.SessionID, tr.Turn, tr.PrefixLen, tr.SharedLen)
	}
	if got := h.Sum64(); got != preLongDocFingerprint {
		t.Fatalf("disabled-path trace fingerprint %#x != pre-feature golden %#x: the LongFrac==0 draw sequence changed", got, preLongDocFingerprint)
	}
}

// TestLongDocFirstSessionDrawPosition pins where a session's doc draws
// sit in the RNG stream: after its start/group/turn-count draws. The
// first session's pre-doc fields therefore match the LongFrac=0 stream
// exactly (later sessions shift — their draws follow session 0's doc
// samples).
func TestLongDocFirstSessionDrawPosition(t *testing.T) {
	base := DefaultSessionConfig()
	base.Sessions = 50
	with := base
	with.LongFrac = 1
	with.LongDocTokens = 10_000
	a, b := SessionScripts(base, 42), SessionScripts(with, 42)
	if b[0].DocTokens == 0 {
		t.Fatal("LongFrac 1 drew no document for session 0")
	}
	if a[0].Start != b[0].Start || a[0].Group != b[0].Group ||
		a[0].SystemTokens != b[0].SystemTokens || len(a[0].Turns) != len(b[0].Turns) {
		t.Fatalf("session 0 pre-doc draws shifted:\nwithout %+v\nwith    %+v", a[0], b[0])
	}
}

// TestLongDocBranchInheritance: a branch inherits its trunk's document,
// and their chains share the document blocks (the trunk hashes it under
// its own identity for both).
func TestLongDocBranchInheritance(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.Sessions = 8
	cfg.LongFrac = 1
	cfg.LongDocTokens = 10_000
	cfg.BranchFactor = 4
	cfg.BranchTurns = 2
	scripts := SessionScripts(cfg, 5)

	trunk := &scripts[0]
	for i := 1; i < 4; i++ {
		br := &scripts[i]
		if br.ParentID != trunk.ID {
			t.Fatalf("script %d not branched off trunk", i)
		}
		if br.DocTokens != trunk.DocTokens {
			t.Fatalf("branch doc %d != trunk doc %d", br.DocTokens, trunk.DocTokens)
		}
		// Shared blocks: system + doc + inherited turns are identical
		// hashes, so the branch's first-turn chain must share the trunk's
		// prefix through the document.
		te, be := trunk.Entry(0), br.Entry(0)
		shared := (trunk.SystemTokens + trunk.DocTokens) / BlockTokens
		if len(te.Blocks) < shared || len(be.Blocks) < shared {
			t.Fatalf("chains shorter than the shared head (%d blocks)", shared)
		}
		for k := 0; k < shared; k++ {
			if te.Blocks[k] != be.Blocks[k] {
				t.Fatalf("branch diverges from trunk at shared block %d", k)
			}
		}
	}
}

// scriptsFingerprint hashes every field of every script — identity,
// lineage, draws (floats by their bits) and block chain.
func scriptsFingerprint(scripts []SessionScript) uint64 {
	h := fnv.New64a()
	turns := func(ts []SessionTurn) {
		fmt.Fprintf(h, "%d:", len(ts))
		for _, t := range ts {
			fmt.Fprintf(h, "%d,%d,%x;", t.UserTokens, t.ReplyTokens, math.Float64bits(t.Think))
		}
	}
	for i := range scripts {
		s := &scripts[i]
		fmt.Fprintf(h, "%d|%d|%d|%d|%x|%d|", s.ID, s.Group, s.SystemTokens, s.DocTokens, math.Float64bits(s.Start), s.ParentID)
		turns(s.Turns)
		turns(s.BaseTurns)
		fmt.Fprintf(h, "%x\n", s.chain)
	}
	return h.Sum64()
}

// TestStreamSessionsMatchesEager is the lazy-sampling contract: pulling the
// whole stream, and SessionScripts (which drains it), both reproduce the
// workload the generator produced before the two became one code path —
// IDs, draws, lineage and block chains, pinned as fingerprints captured
// when the eager generator was still separate code (and matched the stream
// element for element) — across plain, long-document, bursty and
// branching configurations.
func TestStreamSessionsMatchesEager(t *testing.T) {
	plain := DefaultSessionConfig()
	plain.Sessions = 97
	long := plain
	long.LongFrac = 0.3
	long.LongDocTokens = 20_000
	burst := plain
	burst.BurstFactor = 3
	burst.BurstPeriod = 40
	branch := long
	branch.BranchFactor = 4
	branch.BranchTurns = 2
	cases := []struct {
		name string
		cfg  SessionConfig
		want uint64
	}{
		{"plain", plain, 0x5db03f5af24cb651},
		{"long-doc", long, 0xd91b0f744fc265f6},
		{"bursty", burst, 0xe7f8796e805ffb3b},
		{"branching", branch, 0x3a8c4fb56cfff7ca},
	}

	for _, c := range cases {
		name, cfg := c.name, c.cfg
		st := StreamSessions(cfg, 23)
		if st.Sessions() != cfg.Sessions {
			t.Fatalf("%s: stream advertises %d sessions, want %d", name, st.Sessions(), cfg.Sessions)
		}
		var got []SessionScript
		families := 0
		for fam := st.Next(); fam != nil; fam = st.Next() {
			families++
			got = append(got, fam...)
		}
		if st.Next() != nil {
			t.Fatalf("%s: exhausted stream yielded another family", name)
		}
		if len(got) != cfg.Sessions {
			t.Fatalf("%s: stream produced %d scripts, want %d", name, len(got), cfg.Sessions)
		}
		if fp := scriptsFingerprint(got); fp != c.want {
			t.Fatalf("%s: stream fingerprint %#x, want %#x", name, fp, c.want)
		}
		if fp := scriptsFingerprint(SessionScripts(cfg, 23)); fp != c.want {
			t.Fatalf("%s: SessionScripts fingerprint %#x, want %#x", name, fp, c.want)
		}
		want := cfg.Sessions
		if cfg.BranchFactor >= 2 {
			want = (cfg.Sessions + cfg.BranchFactor - 1) / cfg.BranchFactor
		}
		if families != want {
			t.Fatalf("%s: %d families, want %d", name, families, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Start < got[i-1].Start {
				t.Fatalf("%s: session %d starts at %.3f before session %d at %.3f",
					name, i+1, got[i].Start, i, got[i-1].Start)
			}
		}
	}
}
