// Command loongserve-sim runs one serving simulation and prints per-run
// metrics: pick a system, a dataset, a request rate and a cluster shape.
//
// Example:
//
//	loongserve-sim -system loongserve -dataset mixed -rate 0.5 -n 200
//	loongserve-sim -system vllm -dataset sharegpt -rate 100 -n 1000 -v
//
// Traces are replayable: -save-trace writes the generated trace as JSON
// lines; -trace replays a previously saved file (ignoring -rate, -n and
// -seed), so different systems can be compared on identical input. Under
// -trace the summary header names the file, its request count and the
// span its arrivals cover; -dataset then shapes no request and only picks
// SplitFuse's chunk size, which the header says for that system.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"loongserve/internal/bench"
	"loongserve/internal/core"
	"loongserve/internal/metrics"
	"loongserve/internal/workload"
)

func main() {
	system := flag.String("system", "loongserve", "loongserve | vllm | splitfuse | distserve | statichybrid | replicated")
	ds := flag.String("dataset", "mixed", "sharegpt | sharegpt-long | leval | lveval | mixed")
	rate := flag.Float64("rate", 0.5, "Poisson arrival rate (req/s)")
	n := flag.Int("n", 200, "number of requests")
	nodes := flag.Int("nodes", 1, "8-GPU nodes")
	seed := flag.Int64("seed", 42, "trace seed")
	verbose := flag.Bool("v", false, "print per-request records")
	tracePath := flag.String("trace", "", "replay a saved trace file instead of sampling (-dataset then only picks SplitFuse's chunk size)")
	saveTrace := flag.String("save-trace", "", "write the generated trace to this file")
	flag.Parse()

	if *nodes < 1 {
		fmt.Fprintln(os.Stderr, "loongserve-sim: -nodes must be >= 1")
		os.Exit(2)
	}
	dataset, err := workload.DatasetByName(*ds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sys, err := pickSystem(*system, *nodes, dataset)
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
			fmt.Fprintln(os.Stderr, "loongserve-sim: -n must be >= 1")
			os.Exit(2)
		}
		if !(*rate > 0) {
			fmt.Fprintln(os.Stderr, "loongserve-sim: -rate must be > 0")
			os.Exit(2)
		}
		trace = workload.PoissonTrace(dataset, *rate, *n, *seed)
	}
	if *saveTrace != "" {
		if err := workload.SaveTraceFile(*saveTrace, trace); err != nil {
			fmt.Fprintf(os.Stderr, "saving trace: %v\n", err)
			os.Exit(1)
		}
	}
	recs, err := bench.RunTrace(sys, trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}
	if *verbose {
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		for _, r := range recs {
			fmt.Printf("req %4d in=%6d out=%5d arrival=%12v firstToken=%12v finish=%12v sloOK=%v\n",
				r.ID, r.InputLen, r.OutputLen, r.Arrival, r.FirstToken, r.Finish, r.MeetsSLO())
		}
	}
	s := metrics.Summarize(recs)
	header := fmt.Sprintf("dataset=%s rate=%.3g req/s", dataset.Name(), *rate)
	if *tracePath != "" {
		header = fmt.Sprintf("trace=%s requests=%d span=%v", *tracePath, len(trace), arrivalSpan(trace).Round(time.Millisecond))
		if name := strings.ToLower(*system); name == "splitfuse" || name == "lightllm" {
			header += fmt.Sprintf(" chunk-from-dataset=%s", dataset.Name())
		}
	}
	fmt.Printf("system=%s %s nodes=%d\n", sys.Name, header, *nodes)
	fmt.Println(s.String())
	fmt.Printf("goodput=%.3f req/s (SLO-met over the arrival window)\n", metrics.Goodput(recs))
}

// arrivalSpan returns the time between a trace's first and last arrival.
func arrivalSpan(trace []workload.TimedRequest) time.Duration {
	if len(trace) == 0 {
		return 0
	}
	first, last := trace[0].Arrival, trace[0].Arrival
	for _, r := range trace[1:] {
		first, last = min(first, r.Arrival), max(last, r.Arrival)
	}
	return last - first
}

func pickSystem(name string, nodes int, ds workload.Dataset) (bench.System, error) {
	var sys bench.System
	switch strings.ToLower(name) {
	case "loongserve":
		sys = bench.LoongServeSys(nodes, core.Options{})
	case "vllm":
		sys = bench.VLLMSys(nodes)
	case "splitfuse", "lightllm":
		sys = bench.LightLLMSys(nodes, ds)
	case "distserve":
		sys = bench.DistServeSys()
	case "statichybrid":
		sys = bench.StaticHybridSys()
	case "replicated":
		sys = bench.ReplicatedSys()
	default:
		return bench.System{}, fmt.Errorf("unknown system %q", name)
	}
	// DistServe and the two ablations are built for one node.
	if sys.Nodes != nodes {
		return bench.System{}, fmt.Errorf("%s supports one node", strings.ToLower(name))
	}
	return sys, nil
}
