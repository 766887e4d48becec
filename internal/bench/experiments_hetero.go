package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"loongserve/internal/autoscale"
	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// The heterogeneous-fleet experiment mixes two replica kinds behind one
// gateway, echoing a real deployment that pairs long-context-capable
// LoongServe nodes with cheaper small continuous-batching nodes:
//
//   - "loong": one 8-GPU node running the elastic TP=2 ESP core. Its
//     sequence parallelism shards one request's KV across all four
//     instances, so its context envelope is the whole ~930K-token pool —
//     the only kind that comfortably holds the long-document tail.
//   - "contbatch": a single-GPU node running plain continuous batching —
//     an eighth of the cost, a ~100K-token envelope (one GPU's HBM after
//     weights), and (per Fig 2's short-prefill scaling argument) more chat
//     throughput per GPU than any wide configuration.
//
// Capability sheets (node count, KV envelope, prefill rate, cost units)
// are derived by fleet.ReplicaKind from each kind's own cluster, engine
// and cost model — nothing here is hand-typed.

// FleetKindNames lists the replica kinds the hetero experiment and the
// fleet CLIs know, in presentation order.
func FleetKindNames() []string { return []string{"loong", "contbatch"} }

// FleetKind builds a fresh replica kind by name.
func FleetKind(name string) (*fleet.ReplicaKind, error) {
	m := model.LWM1MText()
	hw := cluster.A800()
	switch name {
	case "loong":
		return fleet.NewKind("loong", fleet.Spec{
			NewEngine: func() serving.Engine { return core.New(2, core.Options{}) },
			NewCluster: func() (*cluster.Cluster, error) {
				return cluster.New(m, hw, 1, 8, 2)
			},
		}), nil
	case "contbatch":
		return fleet.NewKind("contbatch", fleet.Spec{
			NewEngine: func() serving.Engine { return baselines.NewVLLM(1) },
			NewCluster: func() (*cluster.Cluster, error) {
				return cluster.New(m, hw, 1, 1, 1)
			},
		}), nil
	}
	return nil, fmt.Errorf("bench: unknown replica kind %q (known kinds: %s)", name, strings.Join(FleetKindNames(), ", "))
}

// FleetKinds returns one fresh instance of every known kind, in order.
func FleetKinds() []*fleet.ReplicaKind {
	kinds := make([]*fleet.ReplicaKind, 0, len(FleetKindNames()))
	for _, name := range FleetKindNames() {
		k, err := FleetKind(name)
		if err != nil {
			panic(err) // unreachable: the names are our own
		}
		kinds = append(kinds, k)
	}
	return kinds
}

// FleetHeteroWorkload returns the mixed-length session workload of the
// hetero experiment: bursty closed-loop chat sessions (ShareGPT-shaped
// turns) of which LongFrac paste a private long document (L-Eval-shaped
// lengths) ahead of their first question — the length mix that gives each
// kind a regime to win.
func FleetHeteroWorkload(sc Scale) workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.ClosedLoop = true
	cfg.SessionRate = sc.HeteroRate
	cfg.MinTurns, cfg.MaxTurns = 2, 5
	cfg.ThinkMean = 2
	cfg.UserTokens, cfg.ReplyTokens = 300, 250
	cfg.LongFrac = 0.12
	// Median ~45K-token documents (L-Eval's body), clamped below the
	// single-GPU kind's ~104K-token pool so even the homogeneous
	// small-replica fleet can structurally serve every request — it just
	// pays dearly in prefill time. The capability router keeps prompts
	// past half a small replica's envelope off the small kind entirely.
	cfg.LongDocTokens = 45_000
	cfg.LongDocMax = 90_000
	cfg.BurstFactor = 3
	cfg.BurstPeriod = sc.HeteroDuration / 3 // three burst cycles per run
	cfg.BurstDuty = 0.3
	mean := cfg.SessionRate * (cfg.BurstFactor*cfg.BurstDuty + (1-cfg.BurstDuty)/cfg.BurstFactor)
	cfg.Sessions = int(mean * sc.HeteroDuration)
	return cfg
}

// HeteroComposition is one static fleet arm of the comparison: a name and
// the groups that build it. All compositions of a scale provision the same
// total cost units.
type HeteroComposition struct {
	Name   string
	Groups []fleet.ReplicaGroup
}

// HeteroCompositions returns the equal-cost static arms: homogeneous
// LoongServe, homogeneous small continuous batching, and the mixed fleet.
// With the loong kind at 8 GPUs and contbatch at 1, cost parity means
// eight contbatch replicas per loong replica.
func HeteroCompositions(sc Scale, loong, cheap *fleet.ReplicaKind) []HeteroComposition {
	n := sc.HeteroLoong
	return []HeteroComposition{
		{Name: fmt.Sprintf("loong x%d", n), Groups: []fleet.ReplicaGroup{{Kind: loong, Count: n}}},
		{Name: fmt.Sprintf("contbatch x%d", 8*n), Groups: []fleet.ReplicaGroup{{Kind: cheap, Count: 8 * n}}},
		{Name: fmt.Sprintf("loong x%d + contbatch x8", n-1), Groups: []fleet.ReplicaGroup{
			{Kind: loong, Count: n - 1}, {Kind: cheap, Count: 8},
		}},
	}
}

// heteroSLOScale is the latency budget multiplier of the hetero arms: like
// the autoscale experiment, an interactive 5x budget (on the loong kind's
// reference config for every arm) makes queueing and slow long prefills
// actually cost SLOs.
const heteroSLOScale = 5

// longSessions returns the IDs of the long-document sessions.
func longSessions(scripts []workload.SessionScript) map[int64]bool {
	long := make(map[int64]bool)
	for i := range scripts {
		if scripts[i].DocTokens > 0 {
			long[scripts[i].ID] = true
		}
	}
	return long
}

// classSLO splits SLO attainment by request class: long-document sessions
// vs chat. The result trace joins record IDs back to sessions.
func classSLO(res *fleet.Result, long map[int64]bool) (longSLO, chatSLO float64) {
	var lMet, lN, cMet, cN int
	for _, rec := range res.Records {
		i := int(rec.ID) - 1
		if i < 0 || i >= len(res.Trace) {
			continue
		}
		if long[res.Trace[i].SessionID] {
			lN++
			if rec.MeetsSLO() {
				lMet++
			}
		} else {
			cN++
			if rec.MeetsSLO() {
				cMet++
			}
		}
	}
	if lN > 0 {
		longSLO = float64(lMet) / float64(lN)
	}
	if cN > 0 {
		chatSLO = float64(cMet) / float64(cN)
	}
	return longSLO, chatSLO
}

// heteroRow formats one arm's comparison row.
func heteroRow(rows [][]string, arm int, name, policy string, res *fleet.Result, long map[int64]bool, scaling string) {
	s := res.Summary()
	longSLO, chatSLO := classSLO(res, long)
	rows[arm] = []string{name, policy,
		f3(res.MeanCostUnits()),
		f3(res.Goodput()), f3(MeanTTFT(res.Records)),
		pct(s.SLOAttainment), pct(longSLO), pct(chatSLO),
		f4(res.GoodputPerCostUnit()), scaling}
}

// heteroErrRow formats a failed arm.
func heteroErrRow(rows [][]string, arm int, name, policy string, err error) {
	cell := "ERR"
	if _, oom := err.(*serving.ErrOOM); oom {
		cell = "OOM"
	}
	rows[arm] = []string{name, policy, "-", cell, "-", "-", "-", "-", "-", err.Error()}
}

// FleetHeteroExperiment is the heterogeneous-fleet comparison: equal-cost
// static compositions (homogeneous LoongServe, homogeneous small
// continuous batching, mixed) under capability-aware routing, the mixed
// fleet again under capability-blind MigratingAffinity (the ablation: the
// hardware alone does not win — the router must know per-replica
// capability), and the kind-picking autoscaler, all on one bursty
// closed-loop chat+long-document workload. The figure of merit is goodput
// per provisioned cost unit — the re-normalization that makes an 8-GPU
// replica and a 2-GPU replica comparable on one axis.
func FleetHeteroExperiment(sc Scale) *Table {
	wcfg := FleetHeteroWorkload(sc)
	scripts := workload.SessionScripts(wcfg, sc.Seed)
	long := longSessions(scripts)

	loong, err := FleetKind("loong")
	if err != nil {
		panic(err) // unreachable: the name is a constant
	}
	cheap, err := FleetKind("contbatch")
	if err != nil {
		panic(err) // unreachable: the name is a constant
	}
	// Resolve before the parallel arms: resolved kinds are read-only, so
	// sharing them across arms is race-free.
	if err := loong.Resolve(); err != nil {
		panic(err)
	}
	if err := cheap.Resolve(); err != nil {
		panic(err)
	}

	comps := HeteroCompositions(sc, loong, cheap)
	t := &Table{
		Title: fmt.Sprintf("Fleet: heterogeneous compositions at equal cost (%d cost units; %.0f%% long-document sessions, bursty closed loop, %d requests)",
			8*sc.HeteroLoong, 100*wcfg.LongFrac, workload.NumRequests(scripts)),
		Header: []string{"fleet", "policy", "cost-units(mean)", "goodput(req/s)", "TTFT(s)", "SLO", "SLO-long", "SLO-chat", "goodput/cost-unit", "scaling"},
	}

	acfg := autoscale.DefaultConfig()
	acfg.Min = 1
	acfg.Max = 8 * sc.HeteroLoong
	acfg.Warmup = time.Duration(sc.AutoscaleWarmup * float64(time.Second))
	// The base kind (first candidate, the Min-floor fleet) is the cheap
	// one: every request structurally fits it here, so the long-context
	// kind enters the fleet only when the controller decides the queue's
	// long tail is worth 8 GPUs — the kind decision under test.
	acfg.Kinds = []*fleet.ReplicaKind{cheap, loong}
	// The default pressure thresholds are calibrated for 8-GPU replicas
	// (a healthy continuous batch runs dozens of requests); most of this
	// fleet's replicas are single-GPU nodes with an eighth of the
	// comfortable batch, so the per-replica triggers shrink accordingly.
	acfg.UpAt, acfg.DownAt = 8, 5
	acfg.Cooldown = 2 * time.Second

	// Arms: the static compositions under CapabilityAffinity, the mixed
	// composition under capability-blind MigratingAffinity, then the
	// kind-picking autoscaler.
	mixed := comps[len(comps)-1]
	rows := make([][]string, len(comps)+2)
	runArms(len(rows), sc.workers(), func(arm int) {
		switch {
		case arm < len(comps):
			c := comps[arm]
			res, err := fleet.RunSessions(scripts, fleet.Config{
				Groups:   c.Groups,
				SLOKind:  loong,
				Policy:   fleet.NewCapabilityAffinity(),
				SLOScale: heteroSLOScale,
			}, true)
			if err != nil {
				heteroErrRow(rows, arm, c.Name, "capability", err)
				return
			}
			heteroRow(rows, arm, c.Name, "capability", res, long, "-")
		case arm == len(comps):
			res, err := fleet.RunSessions(scripts, fleet.Config{
				Groups:   mixed.Groups,
				SLOKind:  loong,
				Policy:   fleet.NewMigratingAffinity(),
				SLOScale: heteroSLOScale,
			}, true)
			if err != nil {
				heteroErrRow(rows, arm, mixed.Name, "migrate (capability-blind)", err)
				return
			}
			heteroRow(rows, arm, mixed.Name, "migrate (capability-blind)", res, long, "-")
		default:
			ares, err := autoscale.RunKinds(scripts, fleet.Config{
				SLOKind:  loong,
				Policy:   fleet.NewCapabilityAffinity(),
				SLOScale: heteroSLOScale,
			}, acfg, true)
			if err != nil {
				heteroErrRow(rows, arm, "autoscale(kinds)", "capability", err)
				return
			}
			heteroRow(rows, arm, "autoscale(kinds)", "capability", ares.Result, long,
				fmt.Sprintf("%d up (%s) / %d down, peak %d", ares.ScaleUps, FormatKindUps(ares.ScaleUpsByKind), ares.ScaleDowns, ares.PeakReplicas))
		}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		"equal-cost arms: 1 loong (8-GPU ESP node) trades for 8 contbatch (single-GPU continuous-batching nodes); cost units are provisioned GPU-seconds",
		fmt.Sprintf("capability routing keeps prompts past %.0f%% of a replica's KV envelope off small replicas; long documents land on the loong kind",
			100*fleet.DefaultCapabilityHeadroom),
		"measured shape: the mixed fleet does not win goodput per cost unit (the homogeneous loong fleet leads at quick scale, the homogeneous small fleet at full scale); session-KV migration is mis-priced on the radix cache (ROADMAP item 3)",
		fmt.Sprintf("autoscaler: kinds picked per scale-up by marginal goodput per cost unit against the queue's length mix; warm-up %v, ceiling %d replicas", acfg.Warmup, acfg.Max))
	return t
}

// FormatKindUps renders per-kind scale-up counts deterministically
// (sorted by kind name) — shared with the loongserve-fleet CLI.
func FormatKindUps(ups map[string]int) string {
	if len(ups) == 0 {
		return "none"
	}
	names := make([]string, 0, len(ups))
	for name := range ups {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%d %s", ups[name], name))
	}
	return strings.Join(parts, ", ")
}
