package workload

import "fmt"

// SessionConfig parameterizes a multi-turn chat trace: a population of
// conversations, each opening with a system prompt drawn from a small
// family of shared prompts and growing by one (user turn, model reply)
// pair per turn. Multi-turn traffic is what makes prefix-KV reuse matter
// for fleet routing: every turn after the first re-submits the whole
// conversation so far, and turn 0 re-submits a system prompt shared with
// every other session of the same PromptGroup.
type SessionConfig struct {
	Sessions     int     // number of conversations in the trace
	MinTurns     int     // turns per session drawn uniformly in [MinTurns, MaxTurns]
	MaxTurns     int     //
	PromptGroups int     // distinct shared system prompts (>= 1)
	SystemTokens int     // median system-prompt length (tokens)
	UserTokens   int     // median new-user-turn length (tokens)
	ReplyTokens  int     // median model-reply length (tokens)
	SessionRate  float64 // new-session Poisson arrival rate (sessions/s)
	ThinkMean    float64 // mean think time between turns (seconds, exponential)

	// ClosedLoop switches the workload's feedback semantics: turn t+1
	// triggers its think time after turn t *completes* rather than after it
	// arrives. A closed-loop trace cannot be pre-materialized — arrivals
	// depend on serving latency — so consumers use SessionScripts with a
	// session-driving runner (fleet.RunSessions, autoscale.RunKinds)
	// instead of SessionTrace. Open-loop (the default, false) preserves the
	// historical behavior exactly.
	ClosedLoop bool
	// BurstFactor > 1 makes session arrivals bursty: each BurstPeriod
	// seconds open at SessionRate*BurstFactor for BurstDuty of the period,
	// then fall to SessionRate/BurstFactor for the rest. 0 (or 1) keeps
	// the homogeneous Poisson process.
	BurstFactor float64
	BurstPeriod float64 // seconds per burst cycle; required when BurstFactor > 1
	BurstDuty   float64 // high-rate fraction of each cycle, (0,1); 0 = 0.5

	// LongFrac > 0 makes that fraction of sessions long-document
	// conversations: the session pastes a private document (median
	// LongDocTokens, log-normal) between its system prompt and its first
	// user turn, and every subsequent turn re-submits it — the L-Eval-shaped
	// long-prompt/short-answer traffic that gives heterogeneous fleets their
	// length mix. The document is session-private context: it counts toward
	// PrefixLen (a warm replica skips it) but not SharedLen. 0 keeps the
	// pure chat workload with the RNG draw sequence — and therefore every
	// existing trace — unchanged.
	LongFrac      float64
	LongDocTokens int // median pasted-document tokens; required when LongFrac > 0
	LongDocMax    int // document length clamp; 0 = 4x the median

	// BranchFactor >= 2 groups sessions into families sharing a
	// conversation prefix: consecutive runs of BranchFactor sessions form
	// one family whose first member is the trunk; the others are branches
	// that fork off the trunk after its first BranchTurns turns (clamped to
	// the trunk's length), inheriting the trunk's prompt group, system
	// prompt and those turns as context. Branches submit only their own
	// divergent turns. This is the workload shape where block-level (radix)
	// prefix caching beats whole-session keying: the shared trunk prefix is
	// reusable across the family, but no branch's session key ever matches
	// another's. 0 (or 1) keeps independent sessions, with the RNG draw
	// sequence — and therefore every existing trace — unchanged.
	BranchFactor int
	BranchTurns  int // trunk turns shared by a family; required when BranchFactor >= 2
}

// DefaultSessionConfig returns a chat-scale configuration: ShareGPT-length
// user turns and replies on top of a ~1.5K-token system prompt, sessions
// of 3-8 turns.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{
		Sessions:     64,
		MinTurns:     3,
		MaxTurns:     8,
		PromptGroups: 4,
		SystemTokens: 1500,
		UserTokens:   160,
		ReplyTokens:  220,
		SessionRate:  2,
		ThinkMean:    4,
	}
}

// Validate reports the first configuration error, so CLI front ends can
// reject bad flag combinations cleanly instead of hitting SessionTrace's
// panic.
func (cfg SessionConfig) Validate() error {
	switch {
	case cfg.Sessions <= 0:
		return fmt.Errorf("workload: SessionConfig.Sessions must be > 0, got %d", cfg.Sessions)
	case cfg.MinTurns <= 0 || cfg.MaxTurns < cfg.MinTurns:
		return fmt.Errorf("workload: bad turn range [%d, %d]", cfg.MinTurns, cfg.MaxTurns)
	case cfg.PromptGroups <= 0:
		return fmt.Errorf("workload: SessionConfig.PromptGroups must be > 0, got %d", cfg.PromptGroups)
	case cfg.SystemTokens < 1:
		return fmt.Errorf("workload: SessionConfig.SystemTokens must be >= 1, got %d", cfg.SystemTokens)
	case cfg.UserTokens < 1:
		return fmt.Errorf("workload: SessionConfig.UserTokens must be >= 1, got %d", cfg.UserTokens)
	case cfg.ReplyTokens < 1:
		return fmt.Errorf("workload: SessionConfig.ReplyTokens must be >= 1, got %d", cfg.ReplyTokens)
	case cfg.SessionRate <= 0:
		return fmt.Errorf("workload: SessionConfig.SessionRate must be > 0, got %v", cfg.SessionRate)
	case cfg.ThinkMean < 0:
		return fmt.Errorf("workload: SessionConfig.ThinkMean must be >= 0, got %v", cfg.ThinkMean)
	case cfg.BurstFactor < 0:
		return fmt.Errorf("workload: SessionConfig.BurstFactor must be >= 0, got %v", cfg.BurstFactor)
	case cfg.BurstFactor > 1 && cfg.BurstPeriod <= 0:
		return fmt.Errorf("workload: BurstFactor %v needs BurstPeriod > 0, got %v", cfg.BurstFactor, cfg.BurstPeriod)
	case cfg.BurstDuty < 0 || cfg.BurstDuty >= 1:
		return fmt.Errorf("workload: BurstDuty must be in [0, 1), got %v", cfg.BurstDuty)
	case cfg.LongFrac < 0 || cfg.LongFrac > 1:
		return fmt.Errorf("workload: LongFrac must be in [0, 1], got %v", cfg.LongFrac)
	case cfg.LongFrac > 0 && cfg.LongDocTokens <= 0:
		return fmt.Errorf("workload: LongFrac %v needs LongDocTokens > 0, got %d", cfg.LongFrac, cfg.LongDocTokens)
	case cfg.LongDocMax < 0:
		return fmt.Errorf("workload: LongDocMax must be >= 0, got %d", cfg.LongDocMax)
	case cfg.BranchFactor < 0:
		return fmt.Errorf("workload: SessionConfig.BranchFactor must be >= 0, got %d", cfg.BranchFactor)
	case cfg.BranchFactor >= 2 && cfg.BranchTurns < 1:
		return fmt.Errorf("workload: BranchFactor %d needs BranchTurns >= 1, got %d", cfg.BranchFactor, cfg.BranchTurns)
	}
	return nil
}

// SessionTrace generates a multi-turn conversation trace, deterministic in
// seed. Sessions open as a Poisson process at SessionRate; within a
// session, turn t+1 arrives an exponential think time after turn t (the
// trace is open-loop: a turn's arrival does not wait for the previous
// turn's completion, so an overloaded server sees the next turn before its
// cache entry exists — exactly the miss a router must tolerate). Requests
// from all sessions are merged and sorted by arrival.
//
// Each turn's Entry carries the session metadata documented on Entry:
// InputLen is the full re-submitted context, PrefixLen the portion a
// prefix cache can serve, SharedLen the system-prompt head shared across
// the session's PromptGroup.
//
// SessionTrace is the open-loop materialization and panics on a
// cfg.ClosedLoop configuration: closed-loop arrivals depend on completion
// times only a serving simulation knows, so closed-loop consumers drive
// SessionScripts through a session-aware runner instead.
func SessionTrace(cfg SessionConfig, seed int64) []TimedRequest {
	if cfg.ClosedLoop {
		panic("workload: a closed-loop session workload cannot be pre-materialized; drive SessionScripts through fleet.RunSessions or autoscale.RunKinds")
	}
	return OpenLoopTrace(SessionScripts(cfg, seed))
}

// SessionStats summarizes the reuse structure of a trace for tests and
// reports: how many requests belong to sessions and how much of the total
// input is prefix-reusable in the best case (an infinite, perfectly warm
// cache).
type SessionStats struct {
	Requests        int
	SessionRequests int   // requests with SessionID != 0
	Sessions        int   // distinct sessions
	InputTokens     int64 // total input tokens
	PrefixTokens    int64 // total reusable-head tokens (upper bound on cache savings)
}

// SummarizeSessions computes SessionStats over a trace.
func SummarizeSessions(trace []TimedRequest) SessionStats {
	st := SessionStats{Requests: len(trace)}
	seen := make(map[int64]bool)
	for _, tr := range trace {
		st.InputTokens += int64(tr.InputLen)
		st.PrefixTokens += int64(tr.PrefixLen)
		if tr.SessionID != 0 {
			st.SessionRequests++
			seen[tr.SessionID] = true
		}
	}
	st.Sessions = len(seen)
	return st
}
