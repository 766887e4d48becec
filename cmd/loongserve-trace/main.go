// Command loongserve-trace runs one simulation with the observability
// stream attached and renders it — the textual analogue of the paper's
// Figure 6 request lifecycle (prefill at high DoP, proactive scale-down,
// decoding, elastic scale-ups as memory and compute demand grow,
// dissolution), now backed by the unified obs exporter.
//
// By default it traces a single LoongServe engine; -replicas N > 1 replays
// the same trace against a fleet of N replicas behind a routing gateway,
// so the timeline additionally shows routing, cache lookups and request
// completion with replica attribution. -analyze (implies fleet mode, even
// at -replicas 1) appends the trace analytics: the per-request
// critical-path attribution table (queue, re-enqueue, migration,
// prefill-wait, prefill, decode — an exact partition of each request's
// latency), the top-straggler report, the invariant auditor's verdict and
// the windowed fleet rollups. -out writes a Perfetto-loadable Chrome
// trace-event JSON; -validate checks such a file against the exporter's
// schema, and -validate-jsonl checks an event-stream JSONL file (as
// written by loongserve-fleet -events-out) — both are CI gates for trace
// artifacts and run nothing.
//
// Examples:
//
//	loongserve-trace -dataset leval -rate 0.15 -n 20
//	loongserve-trace -trace saved.jsonl -summary
//	loongserve-trace -replicas 4 -policy affinity -summary
//	loongserve-trace -replicas 4 -policy migrate -analyze
//	loongserve-trace -n 20 -out trace.json
//	loongserve-trace -validate trace.json
//	loongserve-trace -validate-jsonl events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"loongserve/internal/bench"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

func main() {
	ds := flag.String("dataset", "mixed", "sharegpt | sharegpt-long | leval | lveval | mixed")
	rate := flag.Float64("rate", 0.3, "Poisson arrival rate (req/s)")
	n := flag.Int("n", 30, "number of requests")
	nodes := flag.Int("nodes", 1, "8-GPU nodes (single-engine mode)")
	seed := flag.Int64("seed", 42, "trace seed")
	tracePath := flag.String("trace", "", "replay a saved trace file instead of sampling")
	summary := flag.Bool("summary", false, "print only per-kind event counts")
	replicas := flag.Int("replicas", 1, "replay against a fleet of this many replicas (> 1 enables fleet mode)")
	engine := flag.String("engine", "loongserve", "fleet-mode replica engine: loongserve or vllm")
	policy := flag.String("policy", "affinity", "fleet-mode routing policy (roundrobin, leastloaded, p2c, affinity, migrate, capability)")
	out := flag.String("out", "", "write a Perfetto-loadable Chrome trace-event JSON to this file")
	validate := flag.String("validate", "", "validate an existing Chrome trace file against the exporter schema and exit")
	validateJSONL := flag.String("validate-jsonl", "", "validate an existing event-stream JSONL file against the exporter schema and exit")
	analyzeRun := flag.Bool("analyze", false, "print trace analytics (critical-path attribution, stragglers, audit verdict, rollups); implies fleet mode")
	sampleEvery := flag.Duration("sample", time.Second, "fleet-mode telemetry sampling period in simulated time (feeds the -analyze rollups)")
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid Chrome trace-event JSON\n", *validate)
		return
	}
	if *validateJSONL != "" {
		data, err := os.ReadFile(*validateJSONL)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.ValidateJSONL(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid event-stream JSONL\n", *validateJSONL)
		return
	}

	if *sampleEvery <= 0 {
		fmt.Fprintln(os.Stderr, "loongserve-trace: -sample must be > 0")
		os.Exit(2)
	}
	if *replicas < 1 {
		fmt.Fprintln(os.Stderr, "loongserve-trace: -replicas must be >= 1")
		os.Exit(2)
	}
	if *nodes < 1 {
		fmt.Fprintln(os.Stderr, "loongserve-trace: -nodes must be >= 1")
		os.Exit(2)
	}
	// The fleet-mode names are resolved in either mode, so a misspelt one
	// is rejected before anything runs.
	spec, err := bench.FleetSpec(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p, err := fleet.ByName(*policy, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	dataset, err := workload.DatasetByName(*ds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var trace []workload.TimedRequest
	if *tracePath != "" {
		trace, err = workload.LoadTraceFile(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading trace: %v\n", err)
			os.Exit(1)
		}
	} else {
		if *n < 1 {
			fmt.Fprintln(os.Stderr, "loongserve-trace: -n must be >= 1")
			os.Exit(2)
		}
		if !(*rate > 0) {
			fmt.Fprintln(os.Stderr, "loongserve-trace: -rate must be > 0")
			os.Exit(2)
		}
		trace = workload.PoissonTrace(dataset, *rate, *n, *seed)
	}

	collector := &obs.Collector{}
	var sampler *obs.Sampler
	var recs []metrics.Record
	var kinds []string

	if *replicas > 1 || *analyzeRun {
		// Fleet replay: the same trace through a routed multi-replica
		// gateway, every replica's engine events bridged into one stream.
		// -analyze rides on this path even single-replica, because the
		// attribution phases hang off the gateway lifecycle events.
		sampler = &obs.Sampler{Interval: *sampleEvery}
		res, err := fleet.Run(trace, fleet.Config{
			Groups:  []fleet.ReplicaGroup{{Kind: fleet.NewKind(*engine, spec), Count: *replicas}},
			Policy:  p,
			Obs:     collector,
			Sampler: sampler,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
			os.Exit(1)
		}
		recs = res.Records
		kinds = make([]string, len(res.Replicas))
		for i, rs := range res.Replicas {
			kinds[i] = rs.Kind
		}
	} else {
		m := model.LWM1MText()
		hw := cluster.A800()
		c, err := cluster.New(m, hw, *nodes, 8, 2)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		eng := core.New(2, core.Options{})
		eng.AttachObsSink(collector, 0)
		recs, err = serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
		if err != nil {
			fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
			os.Exit(1)
		}
		kinds = []string{eng.Name()}
	}

	if *summary {
		printCounts(collector.Events)
	} else {
		obs.Timeline(os.Stdout, collector.Events)
	}

	if sampler != nil {
		if d, fd := sampler.Dropped(), sampler.FleetDropped(); d > 0 || fd > 0 {
			fmt.Fprintf(os.Stderr, "loongserve-trace: telemetry sampler dropped %d replica and %d fleet samples (ring full; lower -sample resolution)\n", d, fd)
		}
	}
	if *analyzeRun {
		rep := analyze.Attribute(collector.Events)
		fmt.Printf("\ntrace analytics (policy %s):\n", *policy)
		if err := analyze.WriteReport(os.Stdout, rep, 5); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := analyze.WriteViolations(os.Stdout, analyze.Audit(collector.Events)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		roll := analyze.Roll(collector.Events, sampler.Samples(), sampler.FleetSamples(), analyze.RollupConfig{Kinds: kinds})
		if err := analyze.WriteRollup(os.Stdout, roll); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = obs.WriteChromeTrace(f, collector.Events, nil, obs.ChromeOptions{ReplicaKinds: kinds, Policy: *policy})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d events (load in ui.perfetto.dev)\n", *out, len(collector.Events))
	}

	s := metrics.Summarize(recs)
	fmt.Printf("\ncompleted %d requests; %s\n", len(recs), s.String())
}

// printCounts renders per-kind event counts, kinds sorted by name.
func printCounts(events []obs.Event) {
	counts := obs.Counts(events)
	names := make([]string, 0, len(counts))
	byName := make(map[string]int, len(counts))
	for k, c := range counts {
		names = append(names, k.String())
		byName[k.String()] = c
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-14s %d\n", name, byName[name])
	}
}
