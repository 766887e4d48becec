package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// SessionTurn is one turn of a scripted conversation: the new user tokens
// it submits, the reply tokens the model generates, and the think time the
// user spends before triggering the next turn. In an open-loop replay the
// think time counts from this turn's *arrival*; in a closed-loop replay it
// counts from this turn's *completion* — the difference is the whole point
// of closed-loop mode (see SessionConfig.ClosedLoop).
type SessionTurn struct {
	UserTokens  int
	ReplyTokens int
	Think       float64 // seconds until the session's next turn triggers
}

// SessionScript is one conversation's full plan: identity, shared-prompt
// family, start time and per-turn token counts. Scripts carry everything a
// driver needs to emit the session's requests either open-loop (arrivals
// from the script alone) or closed-loop (each turn's arrival depends on the
// previous turn's completion, which only the serving simulation knows).
type SessionScript struct {
	ID           int64 // 1-based SessionID
	Group        int   // 1-based PromptGroup
	SystemTokens int   // shared system-prompt length (SharedLen)
	// DocTokens is a private pasted document between the system prompt and
	// the first turn (0 for pure chat sessions): session-owned context that
	// every turn re-submits, reusable from the session's previous turn
	// (PrefixLen) but shared with no other session — the long-document
	// workload shape of SessionConfig.LongFrac.
	DocTokens int
	Start     float64
	Turns     []SessionTurn

	// Branching lineage (zero-valued for independent sessions): the session
	// forked off session ParentID and inherits BaseTurns — conversation
	// turns whose content belongs to the parent — as context preceding its
	// own Turns. The branch never re-submits the inherited turns; its first
	// request already carries them as re-submitted context, so their KV is
	// reusable from any replica that served the parent (a radix cache
	// shares them block-for-block; whole-session keying cannot).
	ParentID  int64
	BaseTurns []SessionTurn

	// chain is the precomputed block-hash chain of the whole conversation
	// (through the last turn's reply). Every turn's chain is a prefix of
	// it — hashes are chained and the turn-t stream is a prefix of the
	// full stream — so Entry slices instead of re-hashing (hand-built
	// scripts without it fall back to hashing per call). Filled by the
	// session generator; read-only afterwards, so scripts stay safe to
	// share across parallel experiment arms.
	chain []uint64
}

// Entry builds the workload Entry for turn t (0-based over the script's own
// Turns): the re-submitted context plus the new user turn, with the
// prefix-reuse structure filled in exactly as SessionTrace emits it.
func (s *SessionScript) Entry(t int) Entry {
	context := s.SystemTokens + s.DocTokens
	for i := range s.BaseTurns {
		context += s.BaseTurns[i].UserTokens + s.BaseTurns[i].ReplyTokens
	}
	for i := 0; i < t; i++ {
		context += s.Turns[i].UserTokens + s.Turns[i].ReplyTokens
	}
	e := Entry{
		InputLen:    context + s.Turns[t].UserTokens,
		OutputLen:   s.Turns[t].ReplyTokens,
		SessionID:   s.ID,
		Turn:        t,
		PromptGroup: s.Group,
		SharedLen:   s.SystemTokens,
		PrefixLen:   context,
	}
	if n := (e.InputLen + e.OutputLen) / BlockTokens; n > 0 {
		if s.chain != nil {
			if n > len(s.chain) {
				n = len(s.chain)
			}
			e.Blocks = s.chain[:n:n]
		} else {
			e.Blocks = s.blockChain(t)
		}
	}
	return e
}

// NumRequests returns the total request count a script set will emit.
func NumRequests(scripts []SessionScript) int {
	n := 0
	for i := range scripts {
		n += len(scripts[i].Turns)
	}
	return n
}

// burstClock warps unit-exponential arrival mass through a square-wave rate
// profile: the first `duty` fraction of every period runs at hi sessions/s,
// the rest at lo. It is how SessionScripts turns a Poisson session process
// into the bursty on/off arrivals the autoscaling experiments need, without
// changing the RNG draw count (one exponential per session either way).
type burstClock struct {
	t      float64
	period float64
	duty   float64
	hi, lo float64
}

// advance consumes `mass` units of exponential arrival mass and returns the
// wall-clock time at which the next session starts.
func (b *burstClock) advance(mass float64) float64 {
	for {
		pos := math.Mod(b.t, b.period)
		rate, boundary := b.hi, b.duty*b.period
		if pos >= b.duty*b.period {
			rate, boundary = b.lo, b.period
		}
		span := boundary - pos
		if need := mass / rate; need <= span {
			b.t += need
			return b.t
		}
		mass -= span * rate
		b.t += span
	}
}

// sessionSampler holds the generator state one session draw advances: the
// RNG, the shared length distributions, the per-group system-prompt
// lengths, and the arrival clock. SessionStream owns it and SessionScripts
// drains the stream, so the draw code exists exactly once.
type sessionSampler struct {
	cfg              SessionConfig
	rng              *rand.Rand
	sysLens          []int
	user, reply, doc lengthDist
	burst            *burstClock
	start            float64
}

func newSessionSampler(cfg SessionConfig, seed int64) *sessionSampler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sp := &sessionSampler{cfg: cfg, rng: rand.New(rand.NewSource(seed))}

	sp.sysLens = make([]int, cfg.PromptGroups)
	for g := range sp.sysLens {
		sp.sysLens[g] = logNormalClamped(sp.rng, float64(cfg.SystemTokens), 0.3, 64, 8*cfg.SystemTokens)
	}

	sp.user = lengthDist{median: float64(cfg.UserTokens), sigma: 0.8, lo: 8, hi: 16 * cfg.UserTokens}
	sp.reply = lengthDist{median: float64(cfg.ReplyTokens), sigma: 0.8, lo: 8, hi: 16 * cfg.ReplyTokens}
	docMax := cfg.LongDocMax
	if docMax == 0 {
		docMax = 4 * cfg.LongDocTokens
	}
	sp.doc = lengthDist{median: float64(cfg.LongDocTokens), sigma: 0.6, lo: BlockTokens, hi: docMax}

	if cfg.BurstFactor > 1 {
		duty := cfg.BurstDuty
		if duty == 0 {
			duty = 0.5
		}
		sp.burst = &burstClock{
			period: cfg.BurstPeriod,
			duty:   duty,
			hi:     cfg.SessionRate * cfg.BurstFactor,
			lo:     cfg.SessionRate / cfg.BurstFactor,
		}
	}
	return sp
}

// draw samples session number s (0-based). Successive draws have
// non-decreasing Start times — the property the lazy fleet feed rests on.
func (sp *sessionSampler) draw(s int) SessionScript {
	cfg := sp.cfg
	mass := sp.rng.ExpFloat64()
	if sp.burst != nil {
		sp.start = sp.burst.advance(mass)
	} else {
		sp.start += mass / cfg.SessionRate
	}
	group := sp.rng.Intn(cfg.PromptGroups)
	turns := cfg.MinTurns + sp.rng.Intn(cfg.MaxTurns-cfg.MinTurns+1)
	sc := SessionScript{
		ID:           int64(s + 1),
		Group:        group + 1,
		SystemTokens: sp.sysLens[group],
		Start:        sp.start,
		Turns:        make([]SessionTurn, turns),
	}
	// Long-document draws happen only when the feature is enabled, so a
	// LongFrac == 0 configuration consumes the RNG exactly as before.
	if cfg.LongFrac > 0 && sp.rng.Float64() < cfg.LongFrac {
		sc.DocTokens = sp.doc.sample(sp.rng)
	}
	for t := 0; t < turns; t++ {
		sc.Turns[t] = SessionTurn{UserTokens: sp.user.sample(sp.rng), ReplyTokens: sp.reply.sample(sp.rng)}
		if cfg.ThinkMean > 0 {
			sc.Turns[t].Think = sp.rng.ExpFloat64() * cfg.ThinkMean
		}
	}
	return sc
}

// SessionScripts generates the conversation plans of a session workload,
// deterministic in seed. It draws from the RNG in exactly the order
// SessionTrace historically did, so for a burst-free configuration
// OpenLoopTrace(SessionScripts(cfg, seed)) reproduces SessionTrace(cfg,
// seed) bit for bit.
//
// With BurstFactor > 1 session start times follow a non-homogeneous Poisson
// process alternating between SessionRate*BurstFactor and
// SessionRate/BurstFactor every BurstPeriod/2 seconds — bursty arrivals for
// elasticity experiments. Turn structure is unaffected.
//
// SessionScripts is StreamSessions drained into one slice: the eager and
// lazy generators are one code path.
func SessionScripts(cfg SessionConfig, seed int64) []SessionScript {
	st := StreamSessions(cfg, seed)
	scripts := make([]SessionScript, 0, cfg.Sessions)
	for fam := st.Next(); fam != nil; fam = st.Next() {
		scripts = append(scripts, fam...)
	}
	return scripts
}

// SessionStream is the lazy spelling of SessionScripts: the same RNG draw
// sequence, surfaced one branching family at a time instead of as one
// O(sessions) slice (SessionScripts is this stream drained), so a
// streaming driver can run day-long million-session workloads holding
// only the live sessions in memory.
type SessionStream struct {
	sp     *sessionSampler
	factor int // family size: BranchFactor, or 1 when branching is off
	drawn  int
}

// StreamSessions opens a lazy session-script stream.
func StreamSessions(cfg SessionConfig, seed int64) *SessionStream {
	factor := 1
	if cfg.BranchFactor >= 2 {
		factor = cfg.BranchFactor
	}
	return &SessionStream{sp: newSessionSampler(cfg, seed), factor: factor}
}

// Sessions returns the total session count the stream will produce.
func (st *SessionStream) Sessions() int { return st.sp.cfg.Sessions }

// Next samples and returns the next branching family — BranchFactor
// consecutive sessions sharing a trunk, or a single session when branching
// is off (the trailing family may be shorter). Returns nil when the stream
// is exhausted. Families are self-contained: branch lineage never crosses a
// family boundary, so sampling family by family is exact.
func (st *SessionStream) Next() []SessionScript {
	cfg := st.sp.cfg
	if st.drawn >= cfg.Sessions {
		return nil
	}
	n := st.factor
	if rem := cfg.Sessions - st.drawn; n > rem {
		n = rem
	}
	family := make([]SessionScript, 0, n)
	for i := 0; i < n; i++ {
		family = append(family, st.sp.draw(st.drawn+i))
	}
	st.drawn += n
	if st.factor >= 2 {
		branchScripts(family, st.factor, cfg.BranchTurns)
	}
	// Hash each conversation once (after branching rewires lineage): every
	// turn's chain is a prefix of the full chain, so Entry can slice it.
	for i := range family {
		s := &family[i]
		s.chain = s.blockChain(len(s.Turns) - 1)
	}
	return family
}

// branchScripts rewires independently drawn scripts into branching
// families: consecutive runs of `factor` scripts share the first script as
// trunk, and every other member becomes a branch forking after the trunk's
// first `turns` turns (clamped to the trunk's length). The branch keeps its
// own drawn start time, think times and divergent turns — only its lineage,
// prompt group and system prompt are rewritten — so the transformation is a
// pure post-pass over the unchanged RNG draw sequence.
func branchScripts(scripts []SessionScript, factor, turns int) {
	for i := range scripts {
		trunk := &scripts[i-i%factor]
		if trunk == &scripts[i] {
			continue
		}
		shared := turns
		if shared > len(trunk.Turns) {
			shared = len(trunk.Turns)
		}
		br := &scripts[i]
		br.ParentID = trunk.ID
		br.BaseTurns = trunk.Turns[:shared:shared]
		br.Group = trunk.Group
		br.SystemTokens = trunk.SystemTokens
		// The trunk's pasted document precedes the shared turns, so a branch
		// inherits it (hashed under the trunk's identity — see blockChain).
		br.DocTokens = trunk.DocTokens
	}
}

// OpenLoopTrace flattens scripts into a static arrival-sorted trace: turn
// t+1 arrives Think seconds after turn t's *arrival*, regardless of when
// (or whether) turn t completed. This is the open-loop projection — the
// semantics SessionTrace has always had.
func OpenLoopTrace(scripts []SessionScript) []TimedRequest {
	trace := make([]TimedRequest, 0, NumRequests(scripts))
	for i := range scripts {
		s := &scripts[i]
		at := s.Start
		for t := range s.Turns {
			trace = append(trace, TimedRequest{
				Entry:   s.Entry(t),
				Arrival: time.Duration(at * 1e9),
			})
			at += s.Turns[t].Think
		}
	}
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].Arrival < trace[j].Arrival })
	return trace
}
