// Command loongserve-bench regenerates the paper's tables and figures
// against the simulated cluster. Each experiment prints one or more text
// tables whose rows correspond to the plotted points of the figure.
// Independent experiment arms (rate x policy x fleet-size points) run
// across goroutines with deterministic result ordering; -serial forces
// single-threaded execution (tables are byte-identical either way).
//
// -exp fleet prints the routing-policy comparison over the fleet's radix
// prefix caches, the heterogeneous-fleet comparison at equal cost and the
// critical-path attribution of the policy comparison.
//
// -exp faults prints the fault-tolerance scorecard: the same closed-loop
// session workload across a ladder of crash/stall rates, with
// request hedging off and on; every row reports zero lost requests and a
// clean invariant audit of its full event stream.
//
// -exp cachedir prints the cache-content-aware-routing scorecard: routing
// over the gateway's global cache directory (ContentAffinity, with and
// without the fleet-shared cold KV tier) against prefix-affinity,
// modulo-hash and choose-2 placement, at equal per-replica cache capacity
// on a branching + long-document workload under drain/crash/link
// degradation churn; every arm audits its full event stream.
//
// Usage:
//
//	loongserve-bench -exp fig2|fig3|fig10|fig11|fig12|fig13|fig14|fig15|fleet|faults|cachedir|autoscale|ablations|bigfleet|all [-quick] [-serial] [-shards N]
//
// -exp bigfleet runs one day-long session trace through a 64-replica
// heterogeneous fleet at every point of a shard ladder (-shards N replaces
// the ladder with {1, N} when N > 1), verifying every sharded arm
// byte-identical to the serial reference — obs stream digest, metrics,
// makespan, audit verdict — so the ladder can only change wall-clock
// time. The ladder's LoongServe replicas fuse decode iterations, their
// engine's default; the quick scale additionally runs a fusion-off arm to
// prove fusion changes event counts and nothing else. It is not part of
// -exp all.
//
// Simulator performance is measured by the benchmark of record
// (BENCHMARK.json, run by perfbench/run.sh), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"loongserve/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig2, fig3, fig10, fig11, fig12, fig13, fig14, fig15, fleet, faults, cachedir, autoscale, ablations, bigfleet, all")
	quick := flag.Bool("quick", false, "reduced request counts and rate ladders")
	serial := flag.Bool("serial", false, "run experiment arms single-threaded (results are byte-identical to parallel)")
	shards := flag.Int("shards", 0, "for -exp bigfleet: replace the shard ladder with {1, N} when N > 1 (0 and 1 keep the scale's ladder; negative values are rejected)")
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "loongserve-bench: -shards must be >= 0, got %d\n", *shards)
		os.Exit(2)
	}

	scale := bench.FullScale()
	if *quick {
		scale = bench.QuickScale()
	}
	if *serial {
		scale.Workers = 1
	}
	if *shards > 1 {
		scale.BigFleetShards = []int{1, *shards}
	}

	run := func(name string) bool {
		return *exp == "all" || strings.EqualFold(*exp, name)
	}
	out := os.Stdout
	any := false

	if run("fig2") {
		bench.Fig2().Fprint(out)
		any = true
	}
	if run("fig3") {
		bench.Fig3().Fprint(out)
		any = true
	}
	if run("fig10") {
		for _, t := range bench.Fig10(scale) {
			t.Fprint(out)
		}
		any = true
	}
	if run("fig11") {
		bench.Fig11(scale).Fprint(out)
		any = true
	}
	if run("fig12") {
		bench.Fig12(scale).Fprint(out)
		any = true
	}
	if run("fig13") {
		a, b := bench.Fig13(scale)
		a.Fprint(out)
		b.Fprint(out)
		any = true
	}
	if run("fig14") {
		bench.Fig14().Fprint(out)
		any = true
	}
	if run("fig15") {
		bench.Fig15().Fprint(out)
		any = true
	}
	if run("fleet") {
		bench.FleetExperiment(scale).Fprint(out)
		bench.FleetHeteroExperiment(scale).Fprint(out)
		bench.FleetAttributionExperiment(scale).Fprint(out)
		any = true
	}
	if run("faults") {
		bench.FleetChaosExperiment(scale).Fprint(out)
		any = true
	}
	if run("cachedir") {
		bench.FleetCacheDirExperiment(scale).Fprint(out)
		any = true
	}
	if run("autoscale") {
		for _, t := range bench.AutoscaleExperiment(scale) {
			t.Fprint(out)
		}
		any = true
	}
	if run("ablations") {
		bench.AblationProactiveVsReactive().Fprint(out)
		bench.AblationDPBatching(scale).Fprint(out)
		bench.AblationPartitioning().Fprint(out)
		bench.AblationControlPlane().Fprint(out)
		any = true
	}
	if strings.EqualFold(*exp, "bigfleet") {
		bench.BigFleetExperiment(scale).Fprint(out)
		any = true
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
