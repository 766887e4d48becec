// Command loongserve-fleet simulates a multi-replica serving fleet: N
// engine replicas (each an independently simulated 8-GPU node) behind a
// gateway that routes a multi-turn chat-session workload through a
// configurable policy, modeling per-replica prefix-KV caches whose hits
// discount prefill. Each cache is a token-block radix tree: any shared
// token prefix — system prompts, branched conversation trunks — is shared
// block-for-block, and eviction drops leaf blocks priced by the cost
// model's recompute time. -branch N groups sessions into families of N
// sharing a conversation trunk. It prints one comparison
// row per policy: goodput, mean TTFT, normalized input latency,
// prefix-cache token hit ratio and SLO attainment, plus per-replica
// breakdowns with -v. A policy whose run fails gets an OOM row when the
// workload cannot fit and an ERR row otherwise; an ERR row makes the
// command exit 1 once every output is written.
//
// The workload can run closed-loop (-closed-loop: each turn arrives think
// time after the previous turn completes, so the fleet sees its own
// backpressure) and bursty (-burst F: arrival rate swings between F times
// and 1/F of -rate). With -autoscale the replica count is elastic: a
// control loop grows the fleet from queue pressure between -min-replicas
// and -max-replicas (paying -warmup per new replica) and drains idle
// replicas, migrating live sessions' KV to survivors over the inter-node
// link; the run prints cost-normalized goodput and the scaling timeline.
//
// Failures are injectable: -faults draws a seeded schedule of replica
// crashes (the replica and its resident KV destroyed mid-flight; every
// in-flight request is recovered onto survivors, re-prefilling only what
// no surviving cache still holds) and intake stalls at the given mean
// rates per simulated minute, scattered over the arrival window. -hedge q
// arms request hedging: a request still waiting for its first token past
// the q-th quantile of the observed per-prefilled-token TTFT distribution
// is duplicated onto a second replica; the first finisher wins and the
// loser's tokens are charged to the run. Both compose with any routing
// policy and with -mix (but not -autoscale — the chaos schedule targets a
// static fleet), print a fault/hedge accounting table, and -audit checks
// the crash and hedge invariants of the resulting event stream.
//
// The gateway can publish a global cache directory (-directory): which
// content blocks each replica and the cold tier hold, as the residency
// events the caches emit on every change — admission, eviction,
// migration, drain and crash (a crash wipes the dead replica's blocks).
// The caches are the directory's only state; replaying the events
// reproduces them. -policy content routes by resident-block overlap —
// each replica scored by the prefill it would really compute, from its
// resident blocks, load and context headroom — and implies -directory, so
// -audit can check every pick's claim against the stream. -cold-tier N
// adds a fleet-shared host-memory pool of N tokens (0, or at least one
// 256-token block): capacity-evicted leaf blocks spill to it instead of
// vanishing, and a request whose prefix lives cold fetches it back over
// the inter-node link when the link beats recompute. The directory,
// content routing and the cold tier run on static and autoscaled fleets
// alike. -faults drain=R,degrade=R extends the chaos schedule with
// planned drains and link-degradation windows (shaped by -link-faults
// factor[:window]), the churn regime the directory is for; the directory,
// cold tier and degraded links all show up in the event stream, -audit's
// invariants and the -analyze rollups.
//
// The fleet can be heterogeneous: -mix composes it from named replica
// kinds (loong: 8-GPU elastic ESP node; contbatch: single-GPU continuous
// batching), each with a capability sheet — context envelope, prefill
// rate, provisioning cost — derived from its own cluster and cost model.
// -policy capability routes by those sheets (long prompts to long-context
// kinds, short to cheap ones), and with -autoscale, -autoscale-kinds lets
// the controller pick *which kind* to add per scale-up (marginal goodput
// per cost unit against the queue's length mix).
//
// Observability: -trace-out writes the run's full event stream — request
// lifecycle (enqueue, route, cache lookup, migrations, prefill/decode
// spans), replica lifecycle, autoscaler decisions and the engines' elastic
// scheduling events — as Chrome trace-event JSON, loadable in
// ui.perfetto.dev with one track per replica and per session plus counter
// tracks from the telemetry sampler. -telemetry-out writes the sampled
// per-replica/fleet time series (queue depth, KV and cache occupancy, hit
// rate, cost units; period set by -sample) as JSONL, and -obs prints a
// textual timeline of the event stream. -events-out writes the raw event
// stream itself as JSONL (validatable with loongserve-trace
// -validate-jsonl). -analyze prints the run's trace analytics: a
// per-request critical-path attribution table (queue wait, re-enqueue
// penalty, migration stall, prefill-wait, prefill, decode — the phases
// partition each request's latency exactly), a top-straggler report, and
// windowed fleet/per-kind rollups joining the event stream with the
// telemetry samples. -audit replays the stream through the invariant
// auditor (lifecycle ordering, request conservation, cache and migration
// bounds) and exits non-zero on any violation — the CI gate for run
// artifacts. When several policies run (-policy all), the exports capture
// the last arm; pick one with -policy. With observability off, the
// simulation hot paths pay a single nil check per would-be event
// (regression-tested to zero allocations).
//
// Performance: -shards N advances the replica engines on N worker
// goroutines in windows between gateway events (conservative time-window
// synchronization: every gateway interaction is a barrier, replicas run
// free between them on private event heaps; a closed loop's think times
// bound how far they may run ahead). Output is byte-identical at any N —
// open- or closed-loop, static, faulty or autoscaled — so sharding buys
// wall-clock time on multi-core hosts, never different results. Every
// replica runs its engine's own decode-iteration fusion default: the
// LoongServe core and the continuous-batching (vllm, contbatch) engine
// both collapse provably identical decode iterations into one simulator
// event, which changes only the simulator event count — records, traces,
// event streams and audits are exact.
//
// Usage:
//
//	loongserve-fleet [flags]
//
// Examples:
//
//	loongserve-fleet                              # all policies, 4 vLLM replicas
//	loongserve-fleet -policy affinity -v          # one policy, per-replica stats
//	loongserve-fleet -engine loongserve -replicas 2
//	loongserve-fleet -sessions 200 -rate 6 -cache-tokens 200000 -no-admission
//	loongserve-fleet -branch 4 -branch-turns 3    # branching-session workload
//	loongserve-fleet -closed-loop -burst 6 -burst-period 40 -burst-duty 0.3 \
//	    -autoscale -min-replicas 1 -max-replicas 4 -warmup 5s
//	loongserve-fleet -mix loong:1,contbatch:8 -policy capability -closed-loop
//	loongserve-fleet -closed-loop -burst 3 -burst-period 30 -burst-duty 0.3 \
//	    -autoscale -autoscale-kinds contbatch,loong -max-replicas 16 -up-at 8 -down-at 5
//	loongserve-fleet -policy affinity -trace-out trace.json -telemetry-out telemetry.jsonl
//	loongserve-fleet -mix loong:1,contbatch:2 -policy capability -trace-out trace.json
//	loongserve-fleet -policy affinity -closed-loop -faults crash=1,stall=3 -hedge 0.95 -audit
//	loongserve-fleet -policy content -cold-tier 200000 -closed-loop \
//	    -faults crash=0.5,drain=2,degrade=1 -link-faults 6:5s -audit
//	loongserve-fleet -sessions 5000 -rate 8 -shards 4 -policy capability \
//	    -mix loong:8,contbatch:56                 # multi-core single-run sharding
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"loongserve/internal/autoscale"
	"loongserve/internal/bench"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

func main() {
	var (
		replicas       = flag.Int("replicas", 4, "engine replicas behind the gateway (each one 8-GPU node)")
		engine         = flag.String("engine", "vllm", "replica engine: vllm (TP=8 continuous batching) or loongserve (elastic TP=2 ESP core)")
		policy         = flag.String("policy", "all", "routing policy: roundrobin, leastloaded, p2c, affinity, migrate, capability, content (directory-driven), modulo, or all (one comparison row each; all excludes content/modulo)")
		mix            = flag.String("mix", "", "heterogeneous composition, e.g. loong:2,contbatch:8 (overrides -replicas/-engine; kinds: "+strings.Join(bench.FleetKindNames(), ", ")+")")
		autoscaleKinds = flag.String("autoscale-kinds", "", "with -autoscale: comma-separated candidate kinds for kind-picking scale-ups, first is the base kind (e.g. contbatch,loong)")

		sessions = flag.Int("sessions", 64, "number of chat sessions in the trace")
		rate     = flag.Float64("rate", 2, "session arrival rate (sessions/s, Poisson)")
		minTurns = flag.Int("min-turns", 3, "minimum turns per session")
		maxTurns = flag.Int("max-turns", 8, "maximum turns per session")
		groups   = flag.Int("groups", 4, "distinct shared system prompts")
		system   = flag.Int("system", 1500, "median system-prompt tokens")
		user     = flag.Int("user", 160, "median user-turn tokens")
		reply    = flag.Int("reply", 220, "median reply tokens")
		think    = flag.Float64("think", 4, "mean think time between turns (seconds)")

		closedLoop  = flag.Bool("closed-loop", false, "turn k+1 arrives think time after turn k completes (feedback-accurate saturation)")
		burst       = flag.Float64("burst", 0, "burst factor: arrival rate swings between rate*F and rate/F (0 = steady)")
		burstPeriod = flag.Float64("burst-period", 40, "seconds per burst cycle")
		burstDuty   = flag.Float64("burst-duty", 0.5, "high-rate fraction of each burst cycle, (0,1)")

		autoScale  = flag.Bool("autoscale", false, "elastic replica count: scale between -min-replicas and -max-replicas from queue pressure")
		minRep     = flag.Int("min-replicas", 1, "autoscale floor")
		maxRep     = flag.Int("max-replicas", 4, "autoscale ceiling")
		warmup     = flag.Duration("warmup", 10*time.Second, "provisioning-to-routable delay for scaled-up replicas")
		interval   = flag.Duration("interval", time.Second, "autoscale control period")
		upAt       = flag.Float64("up-at", 30, "scale up above this many outstanding requests per active replica")
		downAt     = flag.Float64("down-at", 20, "scale down when survivors would stay below this per replica")
		cooldown   = flag.Duration("cooldown", 4*time.Second, "minimum time between scaling actions")
		showEvents = flag.Bool("events", true, "with -autoscale, print the scaling timeline")

		faultsSpec = flag.String("faults", "", "inject a seeded fault schedule: comma list of kind=rate (mean events per simulated minute; kinds: crash, stall, drain, degrade), e.g. crash=1,stall=3,drain=1,degrade=2")
		linkFaults = flag.String("link-faults", "", "shape of degrade faults as factor[:window], e.g. 8:5s (slowdown multiple and mean window; defaults 4:10s; requires -faults degrade=...)")
		hedgeQ     = flag.Float64("hedge", 0, "request hedging: per-prefilled-token TTFT quantile arming the hedge timer (typical 0.95-0.99; 0 = off)")

		traceOut     = flag.String("trace-out", "", "write a Perfetto-loadable Chrome trace-event JSON of the run to this file (with -policy all: the last policy arm)")
		telemetryOut = flag.String("telemetry-out", "", "write the sampled per-replica/fleet telemetry time series as JSONL to this file")
		eventsOut    = flag.String("events-out", "", "write the raw event stream as JSONL to this file (one event per line, obs schema)")
		obsTimeline  = flag.Bool("obs", false, "print the textual observability timeline (routing, cache, migrations, lifecycle, engine events) after the run")
		analyzeRun   = flag.Bool("analyze", false, "print trace analytics after the run: per-request critical-path attribution, straggler report and fleet time-series rollups")
		auditRun     = flag.Bool("audit", false, "run the stream invariant auditor over the run's events; exit non-zero on violations")
		sampleEvery  = flag.Duration("sample", time.Second, "telemetry sampling period in simulated time (used by -trace-out/-telemetry-out/-analyze)")

		cacheTokens = flag.Int("cache-tokens", 0, "per-replica prefix-cache capacity in KV tokens (0 = full KV pool)")
		noAdmission = flag.Bool("no-admission", false, "disable TinyLFU admission (eviction stays cost-priced GDSF over leaf blocks)")
		directory   = flag.Bool("directory", false, "publish the global cache directory: every cache residency change as a directory-update event (implied by -policy content and -cold-tier)")
		coldTier    = flag.Int("cold-tier", 0, "fleet-shared host-memory cold KV tier capacity in tokens, at least one 256-token block: capacity-evicted radix blocks spill there and are fetched back when the link beats recompute (0 = off)")
		branch      = flag.Int("branch", 0, "branching sessions: family size sharing a conversation trunk (0 = independent sessions)")
		branchTurns = flag.Int("branch-turns", 2, "trunk turns shared within a branching family")
		shardsN     = flag.Int("shards", 0, "advance replica engines on N worker goroutines in windows between gateway events (0 and 1 run inline; output is byte-identical at any N, open- or closed-loop, static, faulty or autoscaled)")
		seed        = flag.Int64("seed", 42, "workload and policy seed (runs are deterministic per seed)")
		verbose     = flag.Bool("v", false, "print per-replica request/hit/cache breakdowns")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"loongserve-fleet: multi-replica gateway simulation with cache-affinity routing\n"+
				"and elastic autoscaling.\n\n"+
				"Routes a multi-turn session workload across N simulated engine replicas and\n"+
				"compares routing policies on goodput, TTFT and prefix-cache hit ratio; with\n"+
				"-autoscale the fleet grows and shrinks from queue pressure, draining replicas\n"+
				"by migrating live session KV. -faults injects seeded replica crashes, stalls,\n"+
				"drains and link degradation; -hedge duplicates straggling requests.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = *sessions
	cfg.SessionRate = *rate
	cfg.MinTurns, cfg.MaxTurns = *minTurns, *maxTurns
	cfg.PromptGroups = *groups
	cfg.SystemTokens, cfg.UserTokens, cfg.ReplyTokens = *system, *user, *reply
	cfg.ThinkMean = *think
	cfg.ClosedLoop = *closedLoop
	cfg.BurstFactor = *burst
	cfg.BurstPeriod = *burstPeriod
	cfg.BurstDuty = *burstDuty
	cfg.BranchFactor = *branch
	cfg.BranchTurns = *branchTurns
	if *branch == 0 {
		cfg.BranchTurns = 0
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *replicas <= 0 {
		fmt.Fprintln(os.Stderr, "loongserve-fleet: -replicas must be >= 1")
		os.Exit(2)
	}
	spec, err := bench.FleetSpec(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	// Heterogeneous composition: -mix builds the fleet from named replica
	// kinds instead of -replicas clones of -engine. ParseMix's errors name
	// the known kinds.
	var mixGroups []fleet.ReplicaGroup
	if *mix != "" {
		if *autoScale {
			fmt.Fprintln(os.Stderr, "loongserve-fleet: -mix is a static composition; with -autoscale use -autoscale-kinds (the controller owns the composition)")
			os.Exit(2)
		}
		mixGroups, err = fleet.ParseMix(*mix, bench.FleetKinds())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var scaleKinds []*fleet.ReplicaKind
	if *autoscaleKinds != "" {
		if !*autoScale {
			fmt.Fprintln(os.Stderr, "loongserve-fleet: -autoscale-kinds requires -autoscale")
			os.Exit(2)
		}
		for _, name := range strings.Split(*autoscaleKinds, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			k, err := bench.FleetKind(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			scaleKinds = append(scaleKinds, k)
		}
		if len(scaleKinds) == 0 {
			fmt.Fprintf(os.Stderr, "loongserve-fleet: -autoscale-kinds names no kinds (known kinds: %s)\n", strings.Join(bench.FleetKindNames(), ", "))
			os.Exit(2)
		}
	}
	var faultRates workload.FaultRates
	if *faultsSpec != "" {
		faultRates, err = parseFaultRates(*faultsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *linkFaults != "" {
		if faultRates.DegradePerMin == 0 {
			fmt.Fprintln(os.Stderr, "loongserve-fleet: -link-faults shapes degrade faults; add -faults degrade=<rate>")
			os.Exit(2)
		}
		faultRates.DegradeFactor, faultRates.DegradeMean, err = parseLinkFaults(*linkFaults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *cacheTokens < 0 {
		fmt.Fprintln(os.Stderr, "loongserve-fleet: -cache-tokens must be >= 0 (0 = full KV pool)")
		os.Exit(2)
	}
	if *coldTier < 0 || (*coldTier > 0 && *coldTier < workload.BlockTokens) {
		fmt.Fprintf(os.Stderr, "loongserve-fleet: -cold-tier must be 0 (off) or at least one %d-token block\n", workload.BlockTokens)
		os.Exit(2)
	}
	if *hedgeQ < 0 || *hedgeQ >= 1 {
		fmt.Fprintln(os.Stderr, "loongserve-fleet: -hedge must be a quantile in [0,1) (0 = off)")
		os.Exit(2)
	}
	if *autoScale && (*faultsSpec != "" || *hedgeQ > 0) {
		fmt.Fprintln(os.Stderr, "loongserve-fleet: -faults/-hedge run against a static fleet; drop -autoscale")
		os.Exit(2)
	}
	if *shardsN < 0 {
		fmt.Fprintln(os.Stderr, "loongserve-fleet: -shards must be >= 0")
		os.Exit(2)
	}
	if *sampleEvery <= 0 {
		fmt.Fprintln(os.Stderr, "loongserve-fleet: -sample must be > 0")
		os.Exit(2)
	}

	scripts := workload.SessionScripts(cfg, *seed)
	trace := workload.OpenLoopTrace(scripts)
	st := workload.SummarizeSessions(trace)

	// The fault schedule is drawn over the arrival window: deterministic per
	// seed, shared by every policy arm, resolved against live replicas at
	// fire time.
	var faultSchedule []workload.Fault
	if *faultsSpec != "" {
		var horizon time.Duration
		if len(trace) > 0 {
			horizon = trace[len(trace)-1].Arrival
		}
		faultSchedule = workload.GenFaults(*seed, faultRates, horizon)
		fmt.Printf("faults: %d scheduled over %v (%s per simulated minute)\n",
			len(faultSchedule), horizon.Round(time.Second), *faultsSpec)
	}

	// Observability: one collector (and sampler) for the run; with a
	// multi-policy comparison it attaches to the last arm only, so the
	// exported trace describes exactly one run.
	var collector *obs.Collector
	var sampler *obs.Sampler
	needObs := *traceOut != "" || *telemetryOut != "" || *eventsOut != "" || *obsTimeline || *analyzeRun || *auditRun
	if needObs {
		collector = &obs.Collector{}
		sampler = &obs.Sampler{Interval: *sampleEvery}
	}

	var policies []fleet.Policy
	if *policy == "all" && !*autoScale {
		policies = append(fleet.AllPolicies(*seed), fleet.NewCapabilityAffinity())
	} else {
		name := *policy
		if name == "all" {
			name = "migrate" // autoscale runs one policy; default to the migrating one
			if len(scaleKinds) > 0 {
				name = "capability" // kind-picking wants capability-aware routing
			}
		}
		p, err := fleet.ByName(name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
		policies = []fleet.Policy{p}
	}

	// fleetConfig is the configuration every run shares, static or
	// autoscaled, under policy p.
	fleetConfig := func(p fleet.Policy) fleet.Config {
		return fleet.Config{
			Policy:      p,
			CacheTokens: *cacheTokens,
			NoAdmission: *noAdmission,
			// A directory-aware policy's content-route events explain its
			// picks beside the directory stream, so asking for one implies
			// publishing it.
			Directory:      *directory || *coldTier > 0 || isDirectoryAware(p),
			ColdTierTokens: *coldTier,
			Shards:         *shardsN,
		}
	}

	mode := "open-loop"
	if cfg.ClosedLoop {
		mode = "closed-loop"
	}
	branching := ""
	if *branch > 1 {
		branching = fmt.Sprintf(", families of %d sharing %d turns", *branch, cfg.BranchTurns)
	}
	fmt.Printf("trace: %d requests over %d sessions (%d prompt groups, %s%s), %.0f%% of input tokens prefix-reusable, radix cache\n",
		st.Requests, st.Sessions, *groups, mode, branching, 100*float64(st.PrefixTokens)/float64(st.InputTokens))

	if *autoScale {
		acfg := autoscale.Config{
			Min: *minRep, Max: *maxRep,
			Interval: *interval, UpAt: *upAt, DownAt: *downAt,
			Warmup: *warmup, Cooldown: *cooldown,
		}
		if err := acfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fcfg := fleetConfig(policies[0])
		fcfg.Obs, fcfg.Sampler = sinkOrNil(collector), sampler
		// A homogeneous fleet is one candidate kind, named after -engine.
		acfg.Kinds = []*fleet.ReplicaKind{fleet.NewKind(*engine, spec)}
		what := *engine
		if len(scaleKinds) > 0 {
			acfg.Kinds = scaleKinds
			names := make([]string, len(scaleKinds))
			for i, k := range scaleKinds {
				names[i] = k.Name
			}
			what = "kinds " + strings.Join(names, ",")
		}
		res, err := autoscale.RunKinds(scripts, fcfg, acfg, cfg.ClosedLoop)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s := metrics.Summarize(res.Records)
		scaling := fmt.Sprintf("%d up / %d down", res.ScaleUps, res.ScaleDowns)
		if len(scaleKinds) > 0 && len(res.ScaleUpsByKind) > 0 {
			scaling = fmt.Sprintf("%d up (%s) / %d down", res.ScaleUps, bench.FormatKindUps(res.ScaleUpsByKind), res.ScaleDowns)
		}
		t := &bench.Table{
			Title:  fmt.Sprintf("Autoscale %d..%d x %s (%s): policy %s", acfg.Min, acfg.Max, what, mode, policies[0].Name()),
			Header: []string{"goodput(req/s)", "TTFT(s)", "SLO", "replicas(mean/peak)", "cost-unit-sec", "goodput/cost-unit", "migrations", "scaling"},
		}
		t.AddRow(
			fmt.Sprintf("%.3f", metrics.Goodput(res.Records)),
			fmt.Sprintf("%.3f", bench.MeanTTFT(res.Records)),
			fmt.Sprintf("%.1f%%", 100*s.SLOAttainment),
			fmt.Sprintf("%.2f / %d", res.MeanReplicas(), res.PeakReplicas),
			fmt.Sprintf("%.1f", res.CostUnitSeconds),
			fmt.Sprintf("%.4f", res.GoodputPerCostUnit()),
			fmt.Sprintf("%d (%d KV tokens)", res.Migrations.Count, res.Migrations.Tokens),
			scaling)
		t.Fprint(os.Stdout)
		if *showEvents {
			et := &bench.Table{
				Title:  "scaling timeline",
				Header: []string{"t", "event", "replica", "detail"},
			}
			routed := 0
			for _, ev := range res.Events {
				if ev.RoutedMigration() {
					routed++
					continue
				}
				et.AddRow(fmt.Sprint(ev.At.Round(time.Millisecond)), ev.Kind, fmt.Sprint(ev.Replica), ev.Detail)
			}
			if routed > 0 {
				et.Notes = append(et.Notes, fmt.Sprintf("%d policy-routed rebalancing migrations elided", routed))
			}
			et.Fprint(os.Stdout)
		}
		printReplicaStats(*verbose, policies[0].Name(), res.Replicas)
		outs := obsOutputs{traceOut: *traceOut, telemetryOut: *telemetryOut, eventsOut: *eventsOut,
			timeline: *obsTimeline, analyze: *analyzeRun, audit: *auditRun}
		writeObsOutputs(outs, collector, sampler, res.Replicas, policies[0].Name())
		return
	}

	what := fmt.Sprintf("%d x %s", *replicas, *engine)
	header := []string{"policy", "goodput(req/s)", "TTFT(s)", "input(ms/t)", "hit-ratio", "hit-req", "SLO"}
	if mixGroups != nil {
		what = *mix
		header = append(header, "goodput/cost-unit")
	}
	t := &bench.Table{
		Title:  fmt.Sprintf("Fleet of %s (%s): routing policy comparison at %.1f sessions/s", what, mode, *rate),
		Header: header,
	}
	perReplica := make(map[string][]fleet.ReplicaStats)
	var faultRows [][]string
	var simEvents uint64
	var simWall time.Duration
	failed := false // an arm failed with an error other than OOM
	var obsReplicas []fleet.ReplicaStats
	obsPolicy := ""
	if needObs && len(policies) > 1 {
		fmt.Fprintf(os.Stderr, "loongserve-fleet: observability captures the last policy arm (%s); use -policy to pick one\n",
			policies[len(policies)-1].Name())
	}
	for pi, p := range policies {
		runCfg := fleetConfig(p)
		runCfg.Groups = mixGroups
		runCfg.Faults = faultSchedule
		if runCfg.Groups == nil {
			// A homogeneous fleet is one group, its kind named after -engine.
			runCfg.Groups = []fleet.ReplicaGroup{{Kind: fleet.NewKind(*engine, spec), Count: *replicas}}
		}
		if needObs && pi == len(policies)-1 {
			runCfg.Obs = collector
			runCfg.Sampler = sampler
			obsPolicy = p.Name()
		}
		if *hedgeQ > 0 {
			runCfg.Hedge = fleet.HedgeConfig{Quantile: *hedgeQ}
		}
		t0 := time.Now()
		res, err := fleet.RunSessions(scripts, runCfg, cfg.ClosedLoop)
		simWall += time.Since(t0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.Name(), err)
			cell := "ERR"
			if _, oom := err.(*serving.ErrOOM); oom {
				cell = "OOM"
			} else {
				failed = true
			}
			row := []string{p.Name(), cell, "-", "-", "-", "-", "-"}
			for len(row) < len(header) {
				row = append(row, "-")
			}
			t.AddRow(row...)
			continue
		}
		s := metrics.Summarize(res.Records)
		row := []string{p.Name(),
			fmt.Sprintf("%.3f", metrics.Goodput(res.Records)),
			fmt.Sprintf("%.3f", bench.MeanTTFT(res.Records)),
			fmt.Sprintf("%.4f", s.MeanInput*1e3),
			fmt.Sprintf("%.1f%%", 100*res.TokenHitRatio()),
			fmt.Sprintf("%.1f%%", 100*res.HitRequestRatio()),
			fmt.Sprintf("%.1f%%", 100*s.SLOAttainment)}
		if mixGroups != nil {
			row = append(row, fmt.Sprintf("%.4f", res.GoodputPerCostUnit()))
		}
		t.AddRow(row...)
		perReplica[p.Name()] = res.Replicas
		simEvents += res.SimEvents
		if runCfg.Obs != nil {
			obsReplicas = res.Replicas
		}
		if len(faultSchedule) > 0 || *hedgeQ > 0 {
			faultRows = append(faultRows, []string{p.Name(),
				fmt.Sprint(res.Faults.Crashes), fmt.Sprint(res.Faults.Stalls),
				fmt.Sprint(res.Faults.Drains), fmt.Sprint(res.Faults.LinkDegrades),
				fmt.Sprint(res.Faults.RecoveredRequests), fmt.Sprint(res.Faults.Skipped),
				fmt.Sprint(res.Hedge.Launched), fmt.Sprint(res.Hedge.Wins), fmt.Sprint(res.Hedge.Losses),
				fmt.Sprint(res.Hedge.WastedTokens)})
		}
		if *coldTier > 0 && res.Cold != (fleet.ColdStats{}) {
			fmt.Printf("%s: cold tier spilled %d / rejected %d / evicted %d blocks, %d fetches (%d tokens)\n",
				p.Name(), res.Cold.Spilled, res.Cold.Rejected, res.Cold.Evicted, res.Cold.Fetches, res.Cold.FetchedTokens)
		}
	}
	t.Fprint(os.Stdout)
	if len(faultRows) > 0 {
		ft := &bench.Table{
			Title: "fault & hedge accounting",
			Header: []string{"policy", "crashes", "stalls", "drains", "degrades", "recovered", "skipped",
				"hedged", "wins", "losses", "wasted(tok)"},
			Rows: faultRows,
		}
		ft.Fprint(os.Stdout)
	}
	if simEvents > 0 && simWall > 0 {
		fmt.Printf("simulator: %d events in %v (%.2fM events/s)\n",
			simEvents, simWall.Round(time.Millisecond), float64(simEvents)/simWall.Seconds()/1e6)
	}

	for _, p := range policies {
		if stats, ok := perReplica[p.Name()]; ok {
			printReplicaStats(*verbose, p.Name(), stats)
		}
	}
	outs := obsOutputs{traceOut: *traceOut, telemetryOut: *telemetryOut, eventsOut: *eventsOut,
		timeline: *obsTimeline, analyze: *analyzeRun, audit: *auditRun}
	writeObsOutputs(outs, collector, sampler, obsReplicas, obsPolicy)
	if failed {
		os.Exit(1)
	}
}

// parseFaultRates parses the -faults spec, a comma list of kind=rate
// entries in mean events per simulated minute.
func parseFaultRates(s string) (workload.FaultRates, error) {
	var r workload.FaultRates
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return r, fmt.Errorf("loongserve-fleet: -faults entry %q is not kind=rate", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || v < 0 {
			return r, fmt.Errorf("loongserve-fleet: -faults rate %q is not a nonnegative number", kv[1])
		}
		switch workload.FaultKind(strings.TrimSpace(kv[0])) {
		case workload.FaultCrash:
			r.CrashPerMin = v
		case workload.FaultStall:
			r.StallPerMin = v
		case workload.FaultDrain:
			r.DrainPerMin = v
		case workload.FaultDegrade:
			r.DegradePerMin = v
		default:
			return r, fmt.Errorf("loongserve-fleet: unknown fault kind %q (kinds: %s, %s, %s, %s)",
				kv[0], workload.FaultCrash, workload.FaultStall, workload.FaultDrain, workload.FaultDegrade)
		}
	}
	return r, nil
}

// parseLinkFaults parses the -link-faults spec, factor[:window], into the
// degrade-fault shape (slowdown multiple, mean window).
func parseLinkFaults(s string) (factor float64, window time.Duration, err error) {
	fs, ws, _ := strings.Cut(s, ":")
	factor, err = strconv.ParseFloat(strings.TrimSpace(fs), 64)
	if err != nil || factor <= 1 {
		return 0, 0, fmt.Errorf("loongserve-fleet: -link-faults factor %q must be a number > 1", fs)
	}
	if ws != "" {
		window, err = time.ParseDuration(strings.TrimSpace(ws))
		if err != nil || window <= 0 {
			return 0, 0, fmt.Errorf("loongserve-fleet: -link-faults window %q must be a positive duration", ws)
		}
	}
	return factor, window, nil
}

// isDirectoryAware reports whether the policy explains its picks for
// content-route events (and so wants the gateway to publish the directory
// stream they are read against).
func isDirectoryAware(p fleet.Policy) bool {
	_, ok := p.(fleet.DirectoryAware)
	return ok
}

// sinkOrNil converts a possibly-nil *Collector to the obs.Sink interface
// without producing a non-nil interface around a nil pointer.
func sinkOrNil(c *obs.Collector) obs.Sink {
	if c == nil {
		return nil
	}
	return c
}

// obsOutputs gathers the post-run rendering requests so the two call
// sites (autoscale and static fleet) stay in sync.
type obsOutputs struct {
	traceOut, telemetryOut, eventsOut string
	timeline, analyze, audit          bool
}

// writeObsOutputs renders the collected observability stream: the Perfetto
// trace, the telemetry/event JSONL, the textual timeline, the trace
// analytics and/or the invariant audit, whichever were requested. Exits
// non-zero when -audit finds violations. No-op when observability was off.
func writeObsOutputs(o obsOutputs, collector *obs.Collector, sampler *obs.Sampler, replicas []fleet.ReplicaStats, policy string) {
	if collector == nil {
		return
	}
	kinds := make([]string, len(replicas))
	for i, rs := range replicas {
		kinds[i] = rs.Kind
	}
	if o.timeline {
		fmt.Printf("\nobservability timeline (%d events):\n", len(collector.Events))
		obs.Timeline(os.Stdout, collector.Events)
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = obs.WriteChromeTrace(f, collector.Events, sampler, obs.ChromeOptions{ReplicaKinds: kinds, Policy: policy})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d events (load in ui.perfetto.dev)\n", o.traceOut, len(collector.Events))
	}
	if o.telemetryOut != "" {
		f, err := os.Create(o.telemetryOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = obs.WriteSamplesJSONL(f, sampler)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d replica samples, %d fleet samples\n", o.telemetryOut, sampler.Len(), sampler.FleetLen())
	}
	if o.eventsOut != "" {
		f, err := os.Create(o.eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = obs.WriteEventsJSONL(f, collector.Events)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d events (JSONL, one per line)\n", o.eventsOut, len(collector.Events))
	}
	if dropped, fdropped := sampler.Dropped(), sampler.FleetDropped(); dropped > 0 || fdropped > 0 {
		fmt.Fprintf(os.Stderr, "loongserve-fleet: telemetry sampler dropped %d replica and %d fleet samples (ring full; lower -sample resolution or raise the ring)\n",
			dropped, fdropped)
	}
	if o.analyze {
		rep := analyze.Attribute(collector.Events)
		fmt.Printf("\ntrace analytics (policy %s):\n", policy)
		if err := analyze.WriteReport(os.Stdout, rep, 5); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		roll := analyze.Roll(collector.Events, sampler.Samples(), sampler.FleetSamples(), analyze.RollupConfig{Kinds: kinds})
		if err := analyze.WriteRollup(os.Stdout, roll); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if o.audit {
		vs := analyze.Audit(collector.Events)
		if err := analyze.WriteViolations(os.Stdout, vs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if len(vs) > 0 {
			os.Exit(1)
		}
	}
}

// printReplicaStats renders the -v per-replica breakdown.
func printReplicaStats(verbose bool, policy string, stats []fleet.ReplicaStats) {
	if !verbose {
		return
	}
	rt := &bench.Table{
		Title:  fmt.Sprintf("%s: per-replica breakdown", policy),
		Header: []string{"replica", "kind", "requests", "hit-req", "hit-tokens", "cache-entries", "evicted", "rejected"},
	}
	for i, rs := range stats {
		rt.AddRow(fmt.Sprint(i), rs.Kind, fmt.Sprint(rs.Requests), fmt.Sprint(rs.HitRequests),
			fmt.Sprint(rs.HitTokens), fmt.Sprint(rs.CacheEntries),
			fmt.Sprint(rs.CacheEvicted), fmt.Sprint(rs.CacheRejected))
	}
	rt.Fprint(os.Stdout)
}
