package bench

import (
	"fmt"
	"time"

	"loongserve/internal/autoscale"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/workload"
)

// AutoscaleWorkload returns the bursty closed-loop session workload the
// autoscale experiment runs: chat sessions whose arrival rate swings
// between 4x and 1/4x of the base rate every half burst period, with each
// turn gated on the previous turn's completion (closed loop), so every
// system sees exactly the backpressure its own latency creates.
func AutoscaleWorkload(sc Scale) workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.ClosedLoop = true
	cfg.SessionRate = 4.5
	cfg.BurstFactor = 6
	cfg.BurstPeriod = sc.AutoscaleDuration / 3 // three burst cycles per run
	cfg.BurstDuty = 0.3                        // spiky: short peaks, long valleys
	// Sessions must be short next to the burst period, or each burst's
	// conversations outlive the following lull and fill in the trough the
	// controller needs to see to scale down.
	cfg.MinTurns, cfg.MaxTurns = 2, 5
	cfg.ThinkMean = 2
	// Heavier turns than the chat default: long pasted-context questions
	// and detailed answers. Prefix caching discounts the history, so the
	// per-turn suffix and the reply length are what size each request's
	// work — and what make fleet capacity a real constraint.
	cfg.UserTokens, cfg.ReplyTokens = 400, 300
	// The on/off burst changes the mean arrival rate; size the session
	// count by it so the arrivals actually span the configured horizon
	// (and its three burst cycles).
	mean := cfg.SessionRate * (cfg.BurstFactor*cfg.BurstDuty + (1-cfg.BurstDuty)/cfg.BurstFactor)
	cfg.Sessions = int(mean * sc.AutoscaleDuration)
	return cfg
}

// autoscaleController returns the control-loop settings the experiment
// uses: the default pressure thresholds with the scale's fleet ceiling and
// warm-up delay. The floor is deployment tuning: with a long warm-up the
// whole leading edge of a burst lands on the shrunken fleet, so the floor
// must hold enough capacity to absorb it while reinforcements load —
// half the ceiling when warm-up runs long, a single replica otherwise.
func autoscaleController(sc Scale) autoscale.Config {
	cfg := autoscale.DefaultConfig()
	cfg.Min = 1
	if sc.AutoscaleWarmup >= 10 {
		cfg.Min = sc.AutoscaleMax / 2
	}
	cfg.Max = sc.AutoscaleMax
	cfg.Warmup = time.Duration(sc.AutoscaleWarmup * float64(time.Second))
	return cfg
}

// autoscaleRow formats one system's comparison row.
func autoscaleRow(t *Table, system string, res *fleet.Result, extra string) {
	s := metrics.Summarize(res.Records)
	t.AddRow(system,
		f3(metrics.Goodput(res.Records)),
		f3(MeanTTFT(res.Records)),
		pct(s.SLOAttainment),
		f3(res.MeanReplicas()),
		f3(res.ReplicaSeconds),
		f4(res.GoodputPerReplica()),
		fmt.Sprint(res.Migrations.Count),
		extra)
}

// AutoscaleExperiment compares static fleets of every size against the
// elastic autoscaler on one bursty closed-loop session trace. The figure
// of merit is cost-normalized goodput — SLO-met requests per second per
// provisioned replica: small static fleets drown in the bursts (goodput
// collapses), large ones burn replica-seconds through every lull, and the
// controller tracks the burst cycle, paying warm-up on the way up and
// drain migrations (live session KV moved over the inter-node link, no
// requests dropped) on the way down.
func AutoscaleExperiment(sc Scale) []*Table {
	wcfg := AutoscaleWorkload(sc)
	acfg := autoscaleController(sc)
	acfg.Kinds = []*fleet.ReplicaKind{vllmKind()}
	scripts := workload.SessionScripts(wcfg, sc.Seed)

	t := &Table{
		Title: fmt.Sprintf("Autoscale: static fleets vs elastic controller (bursty %vx sessions, closed loop, %d requests)",
			wcfg.BurstFactor, workload.NumRequests(scripts)),
		Header: []string{"system", "goodput(req/s)", "TTFT(s)", "SLO", "replicas(mean)", "replica-sec", "goodput/replica", "migrations", "scaling"},
	}
	policy := func() fleet.Policy { return fleet.NewMigratingAffinity() }
	// Bursts are a latency phenomenon: the paper's 25x budget absorbs any
	// queue a closed-loop workload can build, so the experiment runs under
	// an interactive 5x budget, where burst queueing actually costs SLOs.
	const sloScale = 5

	// The static-fleet ladder and the autoscaled run are independent arms:
	// scripts are immutable (each driver keeps its own cursor state), every
	// arm builds its own gateway and replicas. Arm i < AutoscaleMax is
	// static-(i+1); the last arm is the controller.
	staticRes := make([]*fleet.Result, sc.AutoscaleMax)
	staticErr := make([]error, sc.AutoscaleMax)
	var ares *autoscale.Result
	var aerr error
	runArms(sc.AutoscaleMax+1, sc.workers(), func(arm int) {
		if arm < sc.AutoscaleMax {
			n := arm + 1
			groups := []fleet.ReplicaGroup{{Kind: vllmKind(), Count: n}}
			staticRes[arm], staticErr[arm] = fleet.RunSessions(scripts,
				fleet.Config{Groups: groups, Policy: policy(), SLOScale: sloScale}, true)
			return
		}
		ares, aerr = autoscale.RunKinds(scripts, fleet.Config{Policy: policy(), SLOScale: sloScale}, acfg, true)
	})

	for n := 1; n <= sc.AutoscaleMax; n++ {
		res, err := staticRes[n-1], staticErr[n-1]
		if err != nil {
			t.AddRow(fmt.Sprintf("static-%d", n), "ERR", "-", "-", "-", "-", "-", "-", err.Error())
			continue
		}
		autoscaleRow(t, fmt.Sprintf("static-%d", n), res, "-")
	}

	var events *Table
	if err := aerr; err != nil {
		t.AddRow("autoscale", "ERR", "-", "-", "-", "-", "-", "-", err.Error())
	} else {
		autoscaleRow(t, "autoscale", ares.Result,
			fmt.Sprintf("%d up / %d down, peak %d", ares.ScaleUps, ares.ScaleDowns, ares.PeakReplicas))
		events = &Table{
			Title:  "Autoscale: scaling timeline (provision / active / drain / migrate / retire)",
			Header: []string{"t", "event", "replica", "detail"},
		}
		// Lifecycle and drain-time migrations are the story; routed
		// rebalancing migrations are frequent and summarized instead.
		routed := 0
		for _, ev := range ares.Events {
			if ev.RoutedMigration() {
				routed++
				continue
			}
			events.AddRow(fmt.Sprint(ev.At.Round(time.Millisecond)), ev.Kind, fmt.Sprint(ev.Replica), ev.Detail)
		}
		if routed > 0 {
			events.Notes = append(events.Notes,
				fmt.Sprintf("%d policy-routed rebalancing migrations elided (%d KV transfers total, %v link time)",
					routed, ares.Migrations.Count, ares.Migrations.Time.Round(time.Millisecond)))
		}
	}
	t.Notes = append(t.Notes,
		"goodput/replica = SLO-met requests per second per provisioned replica (replica-seconds include warm-up and drain time)",
		"measured shape: the autoscaler beats every static size on goodput/replica at quick scale; at full scale the largest static fleet leads, with session-KV migration mis-priced on the radix cache (ROADMAP item 3)",
		fmt.Sprintf("controller: scale up above %.0f outstanding reqs/replica, consolidate when survivors stay under %.0f, warm-up %v, cooldown %v",
			acfg.UpAt, acfg.DownAt, acfg.Warmup, acfg.Cooldown))

	out := []*Table{t}
	if events != nil {
		out = append(out, events)
	}
	return out
}
