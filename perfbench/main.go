// Command perfbench is the repository's benchmark of record. It runs one of
// four workloads against the simulator or the HTTP front end, checks the
// outputs, and prints every metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host speed, memory,
// set-up time, and the latency/SLO figures the workload's users see). With
// -trace 1 a separate traced run attributes host time and allocations to
// the repository's modules (see LAYERS.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload esp-single --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: esp-single, fleet-elastic, fleet-stream or http-toy")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files")
	flag.Parse()

	if _, ok := workloads[*name]; !ok {
		fatalf("unknown workload %q (want one of %v)", *name, workloadNames())
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive, got %v", *seconds)
	}
	var res *result
	var err error
	switch *trace {
	case 0:
		res, err = measure(*name, *seed, *seconds)
	case 1:
		res, err = traced(*name, *seed, *seconds, *out)
	default:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	res.print(os.Stdout)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported figure. A metric whose value cannot be measured on
// this workload is printed as n/a with the reason, and as 0 in the JSON
// line (which has no way to spell n/a).
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample count or provenance, printed beside the value
	NA    string // non-empty: not applicable here, and why
}

// result is a finished, checked run: what the JSON line and the report say.
type result struct {
	workload  string
	seed      int64
	header    []string // fingerprint, digests, repetition counts
	attempted int
	report    []metric // human-readable metrics (per-workload names, with n/a)
	json      []metric // the BENCHMARK.json metric set for this mode
	tables    []string // extra human-readable blocks (attribution, spans)
}

func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s seed %d\n", r.workload, r.seed)
	for _, h := range r.header {
		fmt.Fprintf(f, "  %s\n", h)
	}
	for _, m := range r.report {
		if m.NA != "" {
			fmt.Fprintf(f, "  %-34s n/a (%s)\n", m.Name, m.NA)
			continue
		}
		fmt.Fprintf(f, "  %-34s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, t := range r.tables {
		fmt.Fprint(f, t)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.json))
	for _, m := range r.json {
		ms[m.Name] = jm{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{true, r.attempted, 0, ms}) // any failure aborts the run before this
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(f, string(line))
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
