package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// The big-fleet sharding experiment is the tentpole scaling demonstration:
// one day-long session trace through a 64-replica heterogeneous fleet, run
// at every point of a shard ladder, with the serial arm (Shards=1, the
// same barrier algorithm inline) as the reference. Every sharded arm must
// reproduce the serial arm byte-for-byte — same obs event stream, same
// metrics summary, same simulated makespan, same audit verdict — so the
// only thing the ladder is allowed to change is wall-clock time. The
// ladder runs every engine as its kind builds it, so the LoongServe
// replicas fuse decode iterations. A quick variant additionally runs one
// fusion-off arm, whose LoongServe kind builds its engines with fusion
// off, to show decode-iteration fusion changes event counts and nothing
// else.
//
// Wall-clock speedup is hardware-honest: each arm records GOMAXPROCS, and
// on a single-core host the ladder degenerates to overhead measurement —
// which is why the table title reports gomaxprocs.

// streamDigest is an O(1)-memory obs.Sink: an order-sensitive FNV-1a fold
// over every field of every event. Two runs with equal digests and equal
// counts emitted the same event stream in the same order — the streaming
// stand-in for retaining and byte-comparing millions of events.
type streamDigest struct {
	h uint64
	n uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newStreamDigest() *streamDigest { return &streamDigest{h: fnvOffset} }

func (d *streamDigest) mix(v uint64) { d.h = (d.h ^ v) * fnvPrime }

// Emit implements obs.Sink.
func (d *streamDigest) Emit(e obs.Event) {
	d.n++
	d.mix(uint64(e.At))
	d.mix(uint64(e.Kind))
	d.mix(uint64(int64(e.Replica)))
	d.mix(uint64(int64(e.Group)))
	d.mix(uint64(e.Session))
	d.mix(uint64(e.Request))
	d.mix(uint64(int64(e.Tokens)))
	d.mix(uint64(e.A))
	d.mix(uint64(e.B))
	for i := 0; i < len(e.Label); i++ {
		d.mix(uint64(e.Label[i]))
	}
	d.mix(0x9e3779b97f4a7c15) // event separator
}

// resultDigest folds everything observable about a finished run except its
// simulator event count (which decode fusion legitimately changes) into
// one hash: makespan, streamed metrics summary, per-replica accounting,
// cold-tier/fault/hedge stats and the derived ratios.
func resultDigest(res *fleet.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%+v|%+v|%+v|%+v|%+v|%v|%v",
		res.End, res.Summary(), res.Replicas, res.Cold, res.Faults, res.Hedge,
		res.TokenHitRatio(), res.Goodput())
	return h.Sum64()
}

// BigFleetWorkload returns the day-long-trace session shape: short chat
// sessions at a high sustained arrival rate, a small long-document tail so
// the heterogeneous fleet's capability routing matters, many prompt groups
// so the radix caches see real churn.
func BigFleetWorkload(sc Scale) workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = sc.BigFleetSessions
	cfg.SessionRate = sc.BigFleetRate
	cfg.MinTurns, cfg.MaxTurns = 2, 3
	cfg.ThinkMean = 6
	cfg.PromptGroups = 16
	cfg.UserTokens, cfg.ReplyTokens = 200, 220
	cfg.LongFrac = 0.05
	cfg.LongDocTokens = 30_000
	cfg.LongDocMax = 60_000
	return cfg
}

// BigFleetComposition builds the 64-replica heterogeneous fleet: a block
// of 8-GPU LoongServe replicas for the long-document tail plus a large
// population of single-GPU continuous-batching replicas for chat. With
// fused false the LoongServe kind builds its engines with decode-iteration
// fusion off: the unfused reference.
func BigFleetComposition(sc Scale, fused bool) []fleet.ReplicaGroup {
	loong, err := FleetKind("loong")
	if err != nil {
		panic(err) // unreachable: the name is a constant
	}
	if !fused {
		build := loong.Spec.NewEngine
		loong.Spec.NewEngine = func() serving.Engine {
			e := build().(*core.Engine)
			e.SetDecodeFusion(false)
			return e
		}
	}
	cheap, err := FleetKind("contbatch")
	if err != nil {
		panic(err) // unreachable: the name is a constant
	}
	if err := loong.Resolve(); err != nil {
		panic(err)
	}
	if err := cheap.Resolve(); err != nil {
		panic(err)
	}
	return []fleet.ReplicaGroup{
		{Kind: loong, Count: sc.BigFleetLoong},
		{Kind: cheap, Count: sc.BigFleetSmall},
	}
}

// BigFleetArm is one measured point of the shard ladder.
type BigFleetArm struct {
	Shards     int
	Fused      bool
	Wall       time.Duration
	Allocs     uint64
	Res        *fleet.Result
	Stream     uint64 // obs event stream digest
	ObsEvents  uint64
	ResDigest  uint64
	Violations int
}

// RunBigFleetArm runs the big-fleet trace once at the given shard count
// through BigFleetComposition(sc, fused), auditing and digesting the full
// observability stream online.
func RunBigFleetArm(sc Scale, shards int, fused bool) BigFleetArm {
	groups := BigFleetComposition(sc, fused)
	dig := newStreamDigest()
	aud := analyze.NewAuditor()
	cfg := fleet.Config{
		Groups:        groups,
		SLOKind:       groups[0].Kind,
		Policy:        fleet.NewCapabilityAffinity(),
		StreamMetrics: true,
		Shards:        shards,
		Obs:           obs.Tee{dig, aud},
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := fleet.RunSessionStream(workload.StreamSessions(BigFleetWorkload(sc), sc.Seed), cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		panic(fmt.Sprintf("bigfleet: shards=%d run failed: %v", shards, err))
	}
	return BigFleetArm{
		Shards:     shards,
		Fused:      fused,
		Wall:       wall,
		Allocs:     m1.Mallocs - m0.Mallocs,
		Res:        res,
		Stream:     dig.h,
		ObsEvents:  dig.n,
		ResDigest:  resultDigest(res),
		Violations: len(aud.Finalize()),
	}
}

// requireBigFleetIdentity panics unless arm reproduced the reference
// byte-for-byte on every observable axis; sameEvents additionally pins the
// simulator event count (shard-ladder arms) — fusion arms relax it because
// fusing legitimately removes events without changing observable output.
func requireBigFleetIdentity(ref, arm BigFleetArm, sameEvents bool) {
	if arm.Stream != ref.Stream || arm.ObsEvents != ref.ObsEvents {
		panic(fmt.Sprintf("bigfleet: shards=%d fused=%v obs stream diverged from serial (digest %x/%d vs %x/%d)",
			arm.Shards, arm.Fused, arm.Stream, arm.ObsEvents, ref.Stream, ref.ObsEvents))
	}
	if arm.ResDigest != ref.ResDigest {
		panic(fmt.Sprintf("bigfleet: shards=%d fused=%v result diverged from serial (digest %x vs %x)",
			arm.Shards, arm.Fused, arm.ResDigest, ref.ResDigest))
	}
	if sameEvents && arm.Res.SimEvents != ref.Res.SimEvents {
		panic(fmt.Sprintf("bigfleet: shards=%d fired %d simulator events, serial fired %d",
			arm.Shards, arm.Res.SimEvents, ref.Res.SimEvents))
	}
}

// BigFleetArms runs the configured shard ladder (plus the fusion-off arm
// when the scale asks for it), verifying every arm against the serial
// reference. The ladder's first entry must be 1.
func BigFleetArms(sc Scale) []BigFleetArm {
	arms := make([]BigFleetArm, 0, len(sc.BigFleetShards)+1)
	for _, shards := range sc.BigFleetShards {
		arms = append(arms, RunBigFleetArm(sc, shards, true))
	}
	ref := arms[0]
	if ref.Shards != 1 {
		panic(fmt.Sprintf("bigfleet: shard ladder must start at the serial reference (shards=1), got %d", ref.Shards))
	}
	for _, arm := range arms[1:] {
		requireBigFleetIdentity(ref, arm, true)
	}
	if sc.BigFleetUnfusedArm {
		arm := RunBigFleetArm(sc, 1, false)
		requireBigFleetIdentity(ref, arm, false)
		if arm.Res.SimEvents <= ref.Res.SimEvents {
			panic(fmt.Sprintf("bigfleet: fusion-off arm fired %d simulator events, fused fired %d — fusion saved nothing",
				arm.Res.SimEvents, ref.Res.SimEvents))
		}
		arms = append(arms, arm)
	}
	for _, arm := range arms {
		if arm.Violations != 0 {
			panic(fmt.Sprintf("bigfleet: shards=%d fused=%v stream audit found %d violations", arm.Shards, arm.Fused, arm.Violations))
		}
	}
	return arms
}

// BigFleetExperiment renders the shard ladder. It panics on any identity
// or audit failure (a determinism bug must fail the run, not footnote it),
// and — when the host has at least BigFleetMinSpeedupProcs cores — on a
// sharded arm slower than BigFleetMinSpeedup over serial.
func BigFleetExperiment(sc Scale) *Table {
	arms := BigFleetArms(sc)
	ref := arms[0]
	procs := runtime.GOMAXPROCS(0)

	t := &Table{
		Title: fmt.Sprintf("Big fleet: single-run sharding ladder (%d replicas, %d sessions over %s simulated, %d requests, gomaxprocs=%d)",
			sc.BigFleetLoong+sc.BigFleetSmall, sc.BigFleetSessions, ref.Res.End.Round(time.Minute), ref.Res.Summary().N, procs),
		Header: []string{"shards", "fused", "wall", "speedup", "sim-events", "events/s", "allocs", "obs-events", "audit", "identical"},
	}
	bestSpeedup := 1.0
	for i, arm := range arms {
		speedup := ref.Wall.Seconds() / arm.Wall.Seconds()
		if arm.Shards > 1 && speedup > bestSpeedup {
			bestSpeedup = speedup
		}
		ident := "ref"
		if i > 0 {
			ident = "yes" // requireBigFleetIdentity already panicked otherwise
		}
		t.AddRow(
			fmt.Sprint(arm.Shards), fmt.Sprint(arm.Fused),
			arm.Wall.Round(time.Millisecond).String(), fmt.Sprintf("%.2fx", speedup),
			fmt.Sprint(arm.Res.SimEvents),
			fmt.Sprintf("%.2fM", float64(arm.Res.SimEvents)/arm.Wall.Seconds()/1e6),
			fmt.Sprint(arm.Allocs), fmt.Sprint(arm.ObsEvents),
			"clean", ident)
	}
	if procs >= BigFleetMinSpeedupProcs && bestSpeedup < BigFleetMinSpeedup {
		panic(fmt.Sprintf("bigfleet: best sharded speedup %.2fx < %.1fx with %d cores available", bestSpeedup, BigFleetMinSpeedup, procs))
	}
	t.Notes = append(t.Notes,
		"shards=1 is the serial reference: the identical barrier algorithm run inline; every sharded arm is verified byte-identical to it (obs stream digest, metrics summary, makespan, per-replica stats, audit verdict)",
		"the fusion-off arm (when present) must match every observable output and fire strictly more simulator events",
		fmt.Sprintf("wall-clock speedup is hardware-bound: the >=%.0fx acceptance gate applies only when gomaxprocs >= %d", BigFleetMinSpeedup, BigFleetMinSpeedupProcs))
	return t
}

// The speedup acceptance gate: sharded arms must beat serial by
// BigFleetMinSpeedup when the host actually has BigFleetMinSpeedupProcs
// cores to run them on. On smaller hosts the ladder still proves identity;
// it just cannot prove scaling.
const (
	BigFleetMinSpeedup      = 3.0
	BigFleetMinSpeedupProcs = 4
)
