package bench

import (
	"fmt"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// Scale controls experiment sizes so the same code serves quick CI
// benchmarks and the full-scale tables loongserve-bench prints (recorded in
// DESIGN.md's "Measured results"). Traces are sized by
// duration (n = rate x Duration, floored at MinN) so every rate point runs
// long enough to reach steady state instead of measuring a transient burst.
type Scale struct {
	MinN     int     // minimum requests per run
	Duration float64 // seconds of arrivals per run
	// Rate ladders (req/s), calibrated to this simulator's saturation
	// points; the paper's absolute rates belong to its testbed, the curve
	// shapes are what must match.
	Fig10Rates map[string][]float64 // per dataset
	Fig12Rates map[string][]float64 // per zipf parameter label
	Fig13Rates []float64            // ShareGPT ladder for the scale-up ablation
	// Fleet experiment: session arrival rates (sessions/s) and replica
	// count for the routing-policy comparison.
	FleetRates    []float64
	FleetReplicas int
	// Autoscale experiment: bursty closed-loop arrival horizon (seconds),
	// replica warm-up (seconds) and the fleet-size ceiling the static
	// ladder and the controller both use.
	AutoscaleDuration float64
	AutoscaleWarmup   float64
	AutoscaleMax      int
	// Heterogeneous-fleet experiment: arrival horizon (seconds), session
	// rate (sessions/s) and the long-context replica count of the
	// homogeneous-LoongServe arm, from which the equal-cost compositions
	// derive (see HeteroCompositions).
	HeteroDuration float64
	HeteroRate     float64
	HeteroLoong    int
	// Chaos experiment: session arrival horizon (seconds), session rate
	// (sessions/s) and the crash-rate ladder (crashes per simulated
	// minute; stall and cache-drop rates derive from each point).
	ChaosDuration   float64
	ChaosRate       float64
	ChaosCrashRates []float64
	// Cache-directory experiment: session arrival horizon (seconds) and
	// session rate (sessions/s) for the placement-policy comparison under
	// drain/crash/link-degradation churn.
	CacheDirDuration float64
	CacheDirRate     float64
	// Big-fleet sharding experiment: heterogeneous composition (loong +
	// contbatch replica counts), session count and arrival rate of the
	// day-long trace, the shard ladder (must start at 1, the serial
	// reference), and whether to run the fusion-off identity arm (cheap at
	// quick scale, prohibitive on the full trace).
	BigFleetLoong      int
	BigFleetSmall      int
	BigFleetSessions   int
	BigFleetRate       float64
	BigFleetShards     []int
	BigFleetUnfusedArm bool
	Seed               int64
	// Workers bounds how many independent experiment arms run concurrently
	// (each arm owns a full simulator); 0 means one per available CPU, 1
	// forces serial execution. Results are ordered by arm index either way,
	// so tables are byte-identical at any setting.
	Workers int
}

// FullScale returns the configuration behind the full-scale tables
// loongserve-bench prints without -quick, which DESIGN.md's "Measured
// results" records.
func FullScale() Scale {
	return Scale{
		MinN:     100,
		Duration: 30,
		Fig10Rates: map[string][]float64{
			"ShareGPT": {30, 100, 200, 300, 400},
			"L-Eval":   {0.5, 1, 2, 4, 6},
			"LV-Eval":  {0.1, 0.2, 0.4, 0.8},
			"Mixed":    {0.2, 0.5, 1, 2, 3},
		},
		Fig12Rates: map[string][]float64{
			"1.00": {0.4, 0.6, 0.8, 1.0, 1.3},
			"1.20": {2, 3, 4, 5, 6, 8},
			"1.40": {6, 8, 9, 11, 14},
		},
		Fig13Rates:        []float64{5, 15, 30, 50, 80},
		FleetRates:        []float64{1, 3, 6, 10},
		FleetReplicas:     4,
		AutoscaleDuration: 360,
		AutoscaleWarmup:   15,
		AutoscaleMax:      4,
		HeteroDuration:    240,
		HeteroRate:        2.8,
		HeteroLoong:       3,
		ChaosDuration:     120,
		ChaosRate:         2.5,
		ChaosCrashRates:   []float64{0, 0.5, 2},
		CacheDirDuration:  180,
		CacheDirRate:      2.5,
		// The day-long trace: ~1M sessions over ~24 simulated hours through
		// 64 replicas, sharded at the full acceptance ladder.
		BigFleetLoong:    8,
		BigFleetSmall:    56,
		BigFleetSessions: 1_000_000,
		BigFleetRate:     11.6,
		BigFleetShards:   []int{1, 4, 8},
		Seed:             42,
	}
}

// QuickScale returns a reduced configuration for unit tests and -bench
// runs.
func QuickScale() Scale {
	return Scale{
		MinN:     50,
		Duration: 6,
		Fig10Rates: map[string][]float64{
			"ShareGPT": {50, 250},
			"L-Eval":   {1, 4},
			"LV-Eval":  {0.1, 0.4},
			"Mixed":    {0.5, 2},
		},
		Fig12Rates: map[string][]float64{
			"1.00": {1, 2},
			"1.20": {2, 4},
			"1.40": {4, 9},
		},
		Fig13Rates:        []float64{20, 60},
		FleetRates:        []float64{1, 3, 6},
		FleetReplicas:     3,
		AutoscaleDuration: 120,
		AutoscaleWarmup:   5,
		AutoscaleMax:      3,
		HeteroDuration:    90,
		HeteroRate:        2.8,
		HeteroLoong:       2,
		ChaosDuration:     40,
		ChaosRate:         3,
		ChaosCrashRates:   []float64{0, 3},
		CacheDirDuration:  90,
		CacheDirRate:      2.5,
		// Same 64-replica fleet, a few simulated minutes of trace: the CI
		// smoke shape, with the fusion-off identity arm included.
		BigFleetLoong:      8,
		BigFleetSmall:      56,
		BigFleetSessions:   2_000,
		BigFleetRate:       8,
		BigFleetShards:     []int{1, 4},
		BigFleetUnfusedArm: true,
		Seed:               42,
	}
}

// traceFor builds a steady-state-length trace for one rate point.
func (sc Scale) traceFor(ds workload.Dataset, rate float64) []workload.TimedRequest {
	n := int(rate * sc.Duration)
	if n < sc.MinN {
		n = sc.MinN
	}
	return workload.PoissonTrace(ds, rate, n, sc.Seed)
}

func dataset(name string) workload.Dataset {
	switch name {
	case "ShareGPT":
		return workload.ShareGPT()
	case "L-Eval":
		return workload.LEval()
	case "LV-Eval":
		return workload.LVEval()
	case "Mixed":
		return workload.Mixed()
	}
	panic("bench: unknown dataset " + name)
}

// fig10Systems returns the Fig 10 comparison set for one dataset.
// DeepSpeed-MII appears only for ShareGPT (it cannot serve >32K requests,
// as in the paper).
func fig10Systems(ds string) []System {
	systems := []System{
		LoongServeSys(1, core.Options{}),
		VLLMSys(1),
	}
	if ds == "ShareGPT" {
		systems = append(systems, DeepSpeedMIISys())
	}
	systems = append(systems, LightLLMSys(1, dataset(ds)), DistServeSys())
	return systems
}

// Fig10 reproduces the end-to-end comparison: normalized per-token, input
// and output latency for every system over every dataset's rate ladder.
// Each (rate, system) point is an independent simulation and runs as its
// own arm; traces are shared read-only per rate.
func Fig10(sc Scale) []*Table {
	var tables []*Table
	for _, ds := range []string{"ShareGPT", "L-Eval", "LV-Eval", "Mixed"} {
		t := &Table{
			Title:  fmt.Sprintf("Figure 10 (%s): normalized latency vs request rate", ds),
			Header: []string{"rate(req/s)", "system", "per-token(s/t)", "input(s/t)", "output(s/t)", "SLO"},
		}
		rates := sc.Fig10Rates[ds]
		systems := fig10Systems(ds)
		traces := make([][]workload.TimedRequest, len(rates))
		for i, rate := range rates {
			traces[i] = sc.traceFor(dataset(ds), rate)
		}
		rows := make([][]string, len(rates)*len(systems))
		runArms(len(rows), sc.workers(), func(arm int) {
			rate := rates[arm/len(systems)]
			sys := systems[arm%len(systems)]
			recs, err := RunTrace(sys, traces[arm/len(systems)])
			if err != nil {
				rows[arm] = []string{fmt.Sprint(rate), sys.Name, "OOM", "OOM", "OOM", "-"}
				return
			}
			s := metrics.Summarize(recs)
			rows[arm] = []string{fmt.Sprint(rate), sys.Name,
				f4(s.MeanPerToken), f4(s.MeanInput), f4(s.MeanOutput), pct(s.SLOAttainment)}
		})
		t.Rows = rows
		t.Notes = append(t.Notes,
			"paper shapes: LoongServe keeps output latency low at every rate; DistServe OOMs on LV-Eval/Mixed; chunked prefill suffers on high P:D datasets")
		tables = append(tables, t)
	}
	return tables
}

// Fig11 reproduces the multi-node comparison: 16 GPUs over two servers,
// Mixed dataset; baselines deploy one engine per server behind a router,
// LoongServe extends ESP to 8.
func Fig11(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 11: multi-node (2x8 GPUs) performance on Mixed",
		Header: []string{"rate(req/s)", "system", "per-token(s/t)", "input(s/t)", "output(s/t)", "SLO"},
	}
	systems := []System{
		LoongServeSys(2, core.Options{}),
		VLLMSys(2),
		LightLLMSys(2, workload.Mixed()),
	}
	for _, rate := range sc.Fig10Rates["Mixed"] {
		// Twice the hardware serves twice the rate range.
		rate *= 2
		trace := sc.traceFor(workload.Mixed(), rate)
		for _, sys := range systems {
			recs, err := RunTrace(sys, trace)
			if err != nil {
				t.AddRow(fmt.Sprint(rate), sys.Name, "OOM", "OOM", "OOM", "-")
				continue
			}
			s := metrics.Summarize(recs)
			t.AddRow(fmt.Sprint(rate), sys.Name,
				f4(s.MeanPerToken), f4(s.MeanInput), f4(s.MeanOutput), pct(s.SLOAttainment))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: LoongServe scales across nodes by picking per-request DoPs; per-server baselines cannot")
	return t
}

// P90Goodput sweeps a rate ladder and returns the best goodput achieved
// with >=90% SLO attainment (the DistServe/paper metric used by Figs 12 and
// 13a).
func P90Goodput(sys System, ds workload.Dataset, rates []float64, sc Scale) float64 {
	best := 0.0
	for _, rate := range rates {
		trace := sc.traceFor(ds, rate)
		recs, err := RunTrace(sys, trace)
		if err != nil {
			continue
		}
		s := metrics.Summarize(recs)
		if s.SLOAttainment >= 0.90 {
			if g := metrics.Goodput(recs); g > best {
				best = g
			}
		}
	}
	return best
}

// Fig12 reproduces the ESP ablation: P90 goodput of LoongServe vs the
// without-ESP variants under Zipf-skewed Mixed workloads (lengths capped at
// 200K so the replicated baseline can serve every request).
func Fig12(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 12: P90 goodput under Zipf sequence-length skews (req/s)",
		Header: []string{"zipf", "LoongServe", "w/o ESP (TP=8)", "w/o ESP (TP=2,SP=4)", "w/o ESP (TP=2)x4", "best gain"},
	}
	systems := []System{LoongServeSys(1, core.Options{}), TP8Sys(), StaticHybridSys(), ReplicatedSys()}
	for _, zipf := range []float64{1.0, 1.2, 1.4} {
		ds := workload.NewZipf(workload.Mixed(), zipf, 200_000, sc.Seed)
		rates := sc.Fig12Rates[fmt.Sprintf("%.2f", zipf)]
		row := []string{fmt.Sprintf("%.2f", zipf)}
		vals := make([]float64, len(systems))
		for i, sys := range systems {
			vals[i] = P90Goodput(sys, ds, rates, sc)
			row = append(row, f3(vals[i]))
		}
		bestBase := 0.0
		for _, v := range vals[1:] {
			if v > bestBase {
				bestBase = v
			}
		}
		if bestBase > 0 {
			row = append(row, fmt.Sprintf("%.2fx", vals[0]/bestBase))
		} else {
			row = append(row, "inf")
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper shape: ESP beats every static parallelism at every skew (paper gains 2.33x/1.98x/1.53x over the best baseline)")
	return t
}

// Fig13 reproduces the elastic scale-up ablation on the generation-heavy
// chat workload (ShareGPT prompts, long outputs — the regime §7.4 motivates
// scale-up with): (a) SLO attainment and output latency with and without
// scale-up over the rate ladder; (b) scale-up operations per 10-second
// window at the highest rate.
func Fig13(sc Scale) (*Table, *Table) {
	a := &Table{
		Title:  "Figure 13a: elastic scale-up ablation (ShareGPT-long)",
		Header: []string{"rate(req/s)", "SLO w/ scale-up", "SLO w/o", "output w/ (s/t)", "output w/o (s/t)"},
	}
	rates := sc.Fig13Rates
	for _, rate := range rates {
		trace := sc.traceFor(workload.ShareGPTLong(), rate)
		with, err1 := RunTrace(LoongServeSys(1, core.Options{}), trace)
		without, err2 := RunTrace(LoongServeSys(1, core.Options{DisableScaleUp: true}), trace)
		c1, c2, o1, o2 := "ERR", "ERR", "-", "-"
		if err1 == nil {
			s := metrics.Summarize(with)
			c1, o1 = pct(s.SLOAttainment), f4(s.MeanOutput)
		}
		if err2 == nil {
			s := metrics.Summarize(without)
			c2, o2 = pct(s.SLOAttainment), f4(s.MeanOutput)
		}
		a.AddRow(fmt.Sprint(rate), c1, c2, o1, o2)
	}
	a.Notes = append(a.Notes, "paper shape: scale-up sustains attainment to higher rates (paper: 2.87x P90 goodput on its testbed)")

	b := &Table{
		Title:  "Figure 13b: elastic scale-up operations per 10s window (ShareGPT-long, highest rate)",
		Header: []string{"window", "scale-ups"},
	}
	rate := rates[len(rates)-1]
	trace := sc.traceFor(workload.ShareGPTLong(), rate)
	eng, recs, err := runLoongServe(core.Options{}, 1, trace)
	if err != nil {
		b.Notes = append(b.Notes, "run failed: "+err.Error())
		return a, b
	}
	makespan := metrics.Summarize(recs).Duration
	buckets := int(makespan/(10*time.Second)) + 1
	counts := make([]int, buckets)
	for _, at := range eng.ScaleUps {
		idx := int(time.Duration(at) / (10 * time.Second))
		if idx >= 0 && idx < buckets {
			counts[idx]++
		}
	}
	total := 0
	for i, c := range counts {
		b.AddRow(fmt.Sprintf("%d-%ds", i*10, (i+1)*10), fmt.Sprint(c))
		total += c
	}
	b.Notes = append(b.Notes,
		fmt.Sprintf("mean %.2f scale-ups per 10s at %.0f req/s (paper: 7.12 at 25 req/s on its testbed)",
			float64(total)/float64(buckets), rate))
	return a, b
}

// runLoongServe runs a LoongServe engine directly so instrumentation
// (scale-up timestamps, counters) stays accessible.
func runLoongServe(opts core.Options, nodes int, trace []workload.TimedRequest) (*core.Engine, []metrics.Record, error) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, nodes, 8, 2)
	if err != nil {
		return nil, nil, err
	}
	eng := core.New(2, opts)
	recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	return eng, recs, err
}

// AblationDPBatching compares the Eq 5 dynamic-programming batcher against
// the greedy single-batch fallback on a mixed-length workload.
func AblationDPBatching(sc Scale) *Table {
	t := &Table{
		Title:  "Ablation: Eq 5 DP batching vs greedy single batch (Mixed)",
		Header: []string{"rate(req/s)", "variant", "input(s/t)", "per-token(s/t)", "SLO"},
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"DP batching", core.Options{}},
		{"greedy", core.Options{DisableDPBatching: true}},
	}
	rates := sc.Fig10Rates["Mixed"]
	traces := make([][]workload.TimedRequest, len(rates))
	for i, rate := range rates {
		traces[i] = sc.traceFor(workload.Mixed(), rate)
	}
	rows := make([][]string, len(rates)*len(variants))
	runArms(len(rows), sc.workers(), func(arm int) {
		rate := rates[arm/len(variants)]
		v := variants[arm%len(variants)]
		recs, err := RunTrace(LoongServeSys(1, v.opts), traces[arm/len(variants)])
		if err != nil {
			rows[arm] = []string{fmt.Sprint(rate), v.name, "ERR", "ERR", "-"}
			return
		}
		s := metrics.Summarize(recs)
		rows[arm] = []string{fmt.Sprint(rate), v.name, f4(s.MeanInput), f4(s.MeanPerToken), pct(s.SLOAttainment)}
	})
	t.Rows = rows
	return t
}
