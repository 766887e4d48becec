package workload

import (
	"reflect"
	"testing"
	"time"
)

func TestSessionTraceDeterministic(t *testing.T) {
	a := SessionTrace(DefaultSessionConfig(), 7)
	b := SessionTrace(DefaultSessionConfig(), 7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := SessionTrace(DefaultSessionConfig(), 8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if !reflect.DeepEqual(a[i], c[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSessionTraceStructure(t *testing.T) {
	cfg := DefaultSessionConfig()
	trace := SessionTrace(cfg, 1)

	// Sorted by arrival.
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival < trace[i-1].Arrival {
			t.Fatalf("trace not sorted at %d: %v < %v", i, trace[i].Arrival, trace[i-1].Arrival)
		}
	}

	// Reconstruct each session and check the turn-by-turn invariants.
	bySession := make(map[int64][]TimedRequest)
	for _, tr := range trace {
		if tr.SessionID == 0 {
			t.Fatal("session trace produced a stateless request")
		}
		bySession[tr.SessionID] = append(bySession[tr.SessionID], tr)
	}
	if len(bySession) != cfg.Sessions {
		t.Fatalf("%d sessions, want %d", len(bySession), cfg.Sessions)
	}
	for id, turns := range bySession {
		if len(turns) < cfg.MinTurns || len(turns) > cfg.MaxTurns {
			t.Fatalf("session %d has %d turns, want [%d, %d]", id, len(turns), cfg.MinTurns, cfg.MaxTurns)
		}
		var prevArrival time.Duration
		prevContext := 0
		for i, tr := range turns {
			if tr.Turn != i {
				t.Fatalf("session %d turn %d labeled %d", id, i, tr.Turn)
			}
			if tr.PromptGroup != turns[0].PromptGroup || tr.SharedLen != turns[0].SharedLen {
				t.Fatalf("session %d changed prompt group mid-conversation", id)
			}
			if tr.PrefixLen >= tr.InputLen {
				t.Fatalf("session %d turn %d: PrefixLen %d >= InputLen %d", id, i, tr.PrefixLen, tr.InputLen)
			}
			if i == 0 {
				if tr.PrefixLen != tr.SharedLen {
					t.Fatalf("session %d turn 0: PrefixLen %d != SharedLen %d", id, tr.PrefixLen, tr.SharedLen)
				}
			} else {
				// The context grows by exactly the previous turn's new
				// user tokens plus its reply.
				want := prevContext + (turns[i-1].InputLen - turns[i-1].PrefixLen) + turns[i-1].OutputLen
				if tr.PrefixLen != want {
					t.Fatalf("session %d turn %d: PrefixLen %d, want %d", id, i, tr.PrefixLen, want)
				}
				if tr.Arrival < prevArrival {
					t.Fatalf("session %d turn %d arrives before turn %d", id, i, i-1)
				}
			}
			prevArrival = tr.Arrival
			prevContext = tr.PrefixLen
		}
	}

	// Sessions of the same prompt group share the system prompt length.
	sharedByGroup := make(map[int]int)
	for _, tr := range trace {
		if prev, ok := sharedByGroup[tr.PromptGroup]; ok && prev != tr.SharedLen {
			t.Fatalf("prompt group %d has two shared lengths %d and %d", tr.PromptGroup, prev, tr.SharedLen)
		}
		sharedByGroup[tr.PromptGroup] = tr.SharedLen
	}

	st := SummarizeSessions(trace)
	if st.Sessions != cfg.Sessions || st.SessionRequests != st.Requests {
		t.Fatalf("stats %+v inconsistent with trace", st)
	}
	if st.PrefixTokens == 0 || st.PrefixTokens >= st.InputTokens {
		t.Fatalf("reusable prefix tokens %d out of range (input %d)", st.PrefixTokens, st.InputTokens)
	}
	// Multi-turn context growth should make reuse substantial: with 3+
	// turns per session most input tokens are re-submitted history.
	if ratio := float64(st.PrefixTokens) / float64(st.InputTokens); ratio < 0.5 {
		t.Fatalf("prefix-reusable fraction %.2f too low for a multi-turn trace", ratio)
	}
}

func TestSessionTraceValidation(t *testing.T) {
	bad := []SessionConfig{
		{},
		{Sessions: 1, MinTurns: 2, MaxTurns: 1, PromptGroups: 1, SessionRate: 1},
		{Sessions: 1, MinTurns: 1, MaxTurns: 1, PromptGroups: 0, SessionRate: 1},
		{Sessions: 1, MinTurns: 1, MaxTurns: 1, PromptGroups: 1, SessionRate: 0},
	}
	// Lengths below 1 would build requests with negative input and zero
	// output (SystemTokens -5, UserTokens -1 and ReplyTokens 0 give InputLen
	// -56), because the length clamp returns hi when hi < lo.
	for _, set := range []func(*SessionConfig){
		func(c *SessionConfig) { c.SystemTokens = -5 },
		func(c *SessionConfig) { c.SystemTokens = 0 },
		func(c *SessionConfig) { c.UserTokens = -1 },
		func(c *SessionConfig) { c.UserTokens = 0 },
		func(c *SessionConfig) { c.ReplyTokens = 0 },
		func(c *SessionConfig) { c.ReplyTokens = -3 },
	} {
		cfg := DefaultSessionConfig()
		set(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
		bad = append(bad, cfg)
	}
	if err := DefaultSessionConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, cfg)
				}
			}()
			SessionTrace(cfg, 1)
		}()
	}
}
