package main

import (
	"fmt"
	"math"
	"sort"
)

// minP99Samples is the fewest samples a p99 is reported from: with 1000
// samples the p99 still has ten beyond it.
const minP99Samples = 1000

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentiles returns the p50 and, when there are at least minP99Samples
// samples, the p99 of xs (sorting xs in place).
func percentiles(xs []float64) (p50, p99 float64, p99ok bool) {
	sort.Float64s(xs)
	p50 = quantile(xs, 0.50)
	if len(xs) < minP99Samples {
		return p50, math.NaN(), false
	}
	return p50, quantile(xs, 0.99), true
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies holds one run's request timings, in milliseconds of the
// workload's own clock: simulated time on the simulator workloads, host
// time on http-toy.
type latencies struct {
	ttft []float64 // first token minus arrival (or send), one per request
	tpot []float64 // (last token - first token) / (tokens - 1), one per request
	// itl holds every gap between consecutive streamed tokens (http-toy
	// only). Gaps of a fraction of a millisecond mostly measure how the
	// client's reads batch chunks, so the JSON line carries tpot instead.
	itl []float64
	met int // requests within their SLO budget
	n   int // requests attempted; a failed request counts as a miss
	// window is the span of the clock over which goodput is counted, in
	// seconds: the arrival window on the simulator; on http-toy, the
	// reference seconds (see calib.go) its requests take at the median
	// rate.
	window float64
}

// latencyMetrics turns a run's timings into the report lines (named as the
// workload's users know them, with sample counts) and the JSON metrics
// shared by every workload. The JSON line carries SLO attainment and
// goodput but not the latency percentiles: http-toy's are wall-clock
// milliseconds that a shared host's drifting speed moved by up to a third
// between runs, more than any bound allows, and one metric set serves every
// workload. A p99 without minP99Samples samples is an error: the workloads
// are sized so that it never happens.
func latencyMetrics(l *latencies, sim bool) (report, js []metric, err error) {
	ttft50, ttft99, ok1 := percentiles(l.ttft)
	tpot50, tpot99, ok2 := percentiles(l.tpot)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("p99 needs %d samples: have %d TTFT and %d TPOT samples",
			minP99Samples, len(l.ttft), len(l.tpot))
	}
	if l.n == 0 || l.window <= 0 {
		return nil, nil, fmt.Errorf("no requests or empty window (n=%d, window=%v)", l.n, l.window)
	}
	attain := float64(l.met) / float64(l.n)
	goodput := float64(l.met) / l.window
	nTTFT := fmt.Sprintf("n=%d", len(l.ttft))
	nTPOT := fmt.Sprintf("n=%d", len(l.tpot))
	nReq := fmt.Sprintf("%d of %d requests", l.met, l.n)
	js = []metric{
		{Name: "slo_attain", Value: attain, Unit: "ratio"},
		{Name: "goodput_rps", Value: goodput, Unit: "req/s"},
	}
	if sim {
		report = []metric{
			{Name: "sim_ttft_p50_s", Value: ttft50 / 1e3, Unit: "s", Note: nTTFT + " (simulated)"},
			{Name: "sim_ttft_p99_s", Value: ttft99 / 1e3, Unit: "s", Note: nTTFT + " (simulated)"},
			{Name: "sim_tpot_p50_ms", Value: tpot50, Unit: "ms", Note: nTPOT + " (simulated)"},
			{Name: "sim_tpot_p99_ms", Value: tpot99, Unit: "ms", Note: nTPOT + " (simulated)"},
			{Name: "sim_slo_attain", Value: attain, Unit: "ratio", Note: nReq + " within 25x budget"},
			{Name: "sim_goodput_rps", Value: goodput, Unit: "req/s", Note: fmt.Sprintf("over a %.1f s simulated arrival window", l.window)},
		}
	} else {
		itl50, itl99, ok := percentiles(l.itl)
		if !ok {
			return nil, nil, fmt.Errorf("p99 needs %d samples: have %d inter-token gaps", minP99Samples, len(l.itl))
		}
		nITL := fmt.Sprintf("n=%d", len(l.itl))
		report = []metric{
			{Name: "ttft_p50_ms", Value: ttft50, Unit: "ms", Note: nTTFT},
			{Name: "ttft_p99_ms", Value: ttft99, Unit: "ms", Note: nTTFT},
			{Name: "itl_p50_ms", Value: itl50, Unit: "ms", Note: nITL},
			{Name: "itl_p99_ms", Value: itl99, Unit: "ms", Note: nITL},
			{Name: "tpot_p50_ms", Value: tpot50, Unit: "ms", Note: nTPOT},
			{Name: "tpot_p99_ms", Value: tpot99, Unit: "ms", Note: nTPOT},
			{Name: "slo_attain", Value: attain, Unit: "ratio", Note: nReq + " within 25x unloaded latency"},
			{Name: "goodput_rps", Value: goodput, Unit: "req/s", Note: fmt.Sprintf("over %.1f reference seconds", l.window)},
		}
	}
	return report, js, nil
}
