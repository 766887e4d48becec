package bench

import (
	"fmt"
	"time"

	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/workload"
)

// CacheDirSessionScripts builds the cache-directory workload: branching
// session families (the shared-trunk shape where block-level reuse wins)
// mixed with long-document sessions (large private prefixes that churn a
// capacity-constrained cache), closed-loop so the fleet sees its own
// backpressure.
func CacheDirSessionScripts(sc Scale) []workload.SessionScript {
	cfg := workload.DefaultSessionConfig()
	cfg.SessionRate = sc.CacheDirRate
	cfg.Sessions = int(sc.CacheDirRate * sc.CacheDirDuration)
	if minSessions := sc.MinN / cfg.MinTurns; cfg.Sessions < minSessions {
		cfg.Sessions = minSessions
	}
	cfg.PromptGroups = 8
	cfg.BranchFactor = 4
	cfg.BranchTurns = 2
	cfg.LongFrac = 0.25
	cfg.LongDocTokens = 6000
	return workload.SessionScripts(cfg, sc.Seed)
}

// CacheDirFaultRates is the churn schedule of the cache-directory
// experiment: planned drains (a replica's KV evacuates and its directory
// entries retract), crashes (its KV and entries are destroyed), and
// link-degradation windows (transfers and cold fetches get honestly more
// expensive) — the regime where stale placement assumptions hurt and a
// coherent directory should pay.
func CacheDirFaultRates() workload.FaultRates {
	return workload.FaultRates{
		CrashPerMin:   0.5,
		DrainPerMin:   2,
		DegradePerMin: 1,
		DegradeMean:   5 * time.Second,
		DegradeFactor: 6,
	}
}

// cacheDirReplicas floors the fleet at six replicas: crashed replicas
// never rejoin and drained ones stay unroutable, the drain guard keeps two
// active, and the full-scale horizon draws about two crashes — a smaller
// fleet runs out of drainable replicas mid-run and the "under churn" claim
// would be vacuous.
func (sc Scale) cacheDirReplicas() int {
	if sc.FleetReplicas < 6 {
		return 6
	}
	return sc.FleetReplicas
}

// cacheDirCacheTokens is the per-replica radix-cache capacity of every
// arm — deliberately far below the working set, so residency churns and
// the arms differ only in where they route and whether evictions spill.
const cacheDirCacheTokens = 40 * workload.BlockTokens

// cacheDirColdTokens is the host-memory pool of the cold arm.
const cacheDirColdTokens = 160 * workload.BlockTokens

// CacheDirArmResult is one arm's outcome, exported so the acceptance test
// can compare policies structurally instead of parsing table cells.
type CacheDirArmResult struct {
	Name       string
	Err        error
	Goodput    float64
	MeanTTFT   float64
	P99TTFT    float64
	SLO        float64
	HitTokens  int64
	HitRatio   float64
	Faults     fleet.FaultStats
	Cold       fleet.ColdStats
	Violations []analyze.Violation
}

// RunCacheDirArms replays the same branching/long-doc workload and the
// same seeded drain/crash/degrade schedule across the placement arms:
// prefix-affinity (whole-key stickiness), modulo-hash and choose-2 (the
// degenerate baselines), ContentAffinity over the global cache directory,
// and ContentAffinity with the cold KV tier. Every arm runs at identical
// per-replica cache capacity and audits its full event stream.
func RunCacheDirArms(sc Scale) []CacheDirArmResult {
	replicas := sc.cacheDirReplicas()
	scripts := CacheDirSessionScripts(sc)
	horizon := time.Duration(sc.CacheDirDuration * float64(time.Second))
	faults := workload.GenFaults(sc.Seed, CacheDirFaultRates(), horizon)
	arms := []struct {
		name      string
		policy    func() fleet.Policy
		directory bool
		cold      int
	}{
		{"prefix-affinity", func() fleet.Policy { return fleet.NewPrefixAffinity() }, false, 0},
		{"modulo-hash", func() fleet.Policy { return fleet.NewModuloHash() }, false, 0},
		{"choose-2", func() fleet.Policy { return fleet.NewPowerOfTwoChoices(sc.Seed) }, false, 0},
		{"content", func() fleet.Policy { return fleet.NewContentAffinity() }, true, 0},
		{"content+cold", func() fleet.Policy { return fleet.NewContentAffinity() }, true, cacheDirColdTokens},
	}
	out := make([]CacheDirArmResult, len(arms))
	runArms(len(arms), sc.workers(), func(arm int) {
		a := arms[arm]
		col := &obs.Collector{}
		cfg := fleet.Config{
			Groups:         []fleet.ReplicaGroup{{Kind: vllmKind(), Count: replicas}},
			Policy:         a.policy(),
			CacheTokens:    cacheDirCacheTokens,
			Directory:      a.directory,
			ColdTierTokens: a.cold,
			Faults:         faults,
			Obs:            col,
		}
		r := CacheDirArmResult{Name: a.name}
		res, err := fleet.RunSessions(scripts, cfg, true)
		if err != nil {
			r.Err = err
			out[arm] = r
			return
		}
		s := metrics.Summarize(res.Records)
		r.Goodput = metrics.Goodput(res.Records)
		r.MeanTTFT = MeanTTFT(res.Records)
		r.P99TTFT = p99TTFT(res.Records)
		r.SLO = s.SLOAttainment
		for _, rs := range res.Replicas {
			r.HitTokens += rs.HitTokens
		}
		r.HitRatio = res.TokenHitRatio()
		r.Faults = res.Faults
		r.Cold = res.Cold
		r.Violations = analyze.Audit(col.Events)
		out[arm] = r
	})
	return out
}

// FleetCacheDirExperiment is the cache-content-aware-routing scorecard:
// the directory arms against the degenerate baselines, at equal cache
// capacity, under drain/crash/link-degradation churn. The claim the table
// carries: routing on *real resident blocks* (not key stickiness or
// hashing) recovers more prefix reuse after churn invalidates placement,
// and spilling evictions to a cold host tier recovers more still —
// strictly higher hit-tokens and a no-worse p99 TTFT tail, with every
// arm's event stream auditing clean.
func FleetCacheDirExperiment(sc Scale) *Table {
	t := &Table{
		Title: fmt.Sprintf("Fleet: cache-content-aware routing over a global cache directory (%d replicas, %d-token caches, drains+crashes+link degradation, %.0fs)",
			sc.cacheDirReplicas(), cacheDirCacheTokens, sc.CacheDirDuration),
		Header: []string{"placement", "goodput(req/s)", "TTFT(s)", "p99TTFT(s)", "SLO",
			"hit-tokens", "hit-ratio", "drains", "crashes", "spill/fetch(tok)", "audit"},
	}
	for _, r := range RunCacheDirArms(sc) {
		if r.Err != nil {
			t.AddRow(r.Name, "ERR", "-", "-", "-", "-", "-", "-", "-", "-", r.Err.Error())
			continue
		}
		audit := "clean"
		if len(r.Violations) != 0 {
			audit = fmt.Sprintf("%d violations: %s", len(r.Violations), r.Violations[0])
		}
		coldCell := "-"
		if r.Cold != (fleet.ColdStats{}) {
			coldCell = fmt.Sprintf("%d/%d", int64(r.Cold.Spilled)*int64(workload.BlockTokens), r.Cold.FetchedTokens)
		}
		t.AddRow(r.Name,
			f3(r.Goodput), f3(r.MeanTTFT), f3(r.P99TTFT), pct(r.SLO),
			fmt.Sprint(r.HitTokens), pct(r.HitRatio),
			fmt.Sprint(r.Faults.Drains), fmt.Sprint(r.Faults.Crashes),
			coldCell, audit)
	}
	t.Notes = append(t.Notes,
		"all arms share one branching + long-document closed-loop workload and one seeded drain/crash/degrade schedule, at identical per-replica radix-cache capacity",
		"prefix-affinity sticks to whole-key homes, modulo-hash and choose-2 ignore content; content routes by directory-resident block overlap plus 0.4x outstanding tokens, within MaxContext headroom",
		"content+cold additionally spills capacity-evicted blocks to a fleet-shared host pool and fetches them back when the (possibly degraded) link beats recompute",
		"audit=clean replays each arm's stream through the invariant checker, directory coherence and cold-tier conservation invariants included")
	return t
}
