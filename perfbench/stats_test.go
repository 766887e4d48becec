package main

import (
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, minP99Samples-1)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // reversed: percentiles sorts
	}
	p50, _, ok := percentiles(xs)
	if ok {
		t.Errorf("p99 reported from %d samples", len(xs))
	}
	if p50 != 500 {
		t.Errorf("p50 of 1..999 = %v, want 500", p50)
	}
	xs = append(xs, 1000)
	p50, p99, ok := percentiles(xs)
	if !ok || p99 != 990 || p50 != 500 {
		t.Errorf("1..1000: p50 %v p99 %v ok %v, want 500, 990, true", p50, p99, ok)
	}
}

func TestLatencyMetricsNeedSamples(t *testing.T) {
	l := &latencies{n: 10, met: 10, window: 1}
	for i := 0; i < minP99Samples; i++ {
		l.ttft = append(l.ttft, 1)
	}
	l.tpot = []float64{1, 2, 3}
	if _, _, err := latencyMetrics(l, true); err == nil {
		t.Fatal("p99 over 3 TPOT samples was reported")
	}
	for i := 0; i < minP99Samples; i++ {
		l.tpot = append(l.tpot, 2)
	}
	report, js, err := latencyMetrics(l, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 2 || len(report) != 6 {
		t.Fatalf("%d JSON and %d report metrics, want 2 and 6", len(js), len(report))
	}
	for _, m := range report {
		if strings.Contains(m.Name, "ttft") && !strings.Contains(m.Note, "n=1000") {
			t.Errorf("%s does not print its sample count: %q", m.Name, m.Note)
		}
		if strings.Contains(m.Name, "tpot") && !strings.Contains(m.Note, "n=1003") {
			t.Errorf("%s does not print its sample count: %q", m.Name, m.Note)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}
