package loongserve_test

// One benchmark per table/figure of the paper's evaluation, plus ablation
// and hot-path micro-benchmarks. Figure benchmarks replay the same
// experiment code cmd/loongserve-bench runs (at QuickScale, so
// `go test -bench=.` stays tractable); their text tables go to the
// benchmark log once per run.
//
// Regenerate the full-resolution tables with:
//
//	go run ./cmd/loongserve-bench -exp all

import (
	"os"
	"sync"
	"testing"
	"time"

	"loongserve/internal/bench"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// tableSink prints each figure's table once per `go test -bench` process so
// benchmark iterations do not spam the log.
var tableSink struct {
	sync.Mutex
	printed map[string]bool
}

func emit(b *testing.B, tables ...*bench.Table) {
	b.Helper()
	tableSink.Lock()
	defer tableSink.Unlock()
	if tableSink.printed == nil {
		tableSink.printed = make(map[string]bool)
	}
	for _, t := range tables {
		if tableSink.printed[t.Title] {
			continue
		}
		tableSink.printed[t.Title] = true
		t.Fprint(os.Stdout)
	}
}

func BenchmarkFig2Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig2()
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkFig3SPvsTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig3()
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		tables := bench.Fig10(sc)
		if i == 0 {
			emit(b, tables...)
		}
	}
}

func BenchmarkFig11MultiNode(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		t := bench.Fig11(sc)
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkFig12Goodput(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		t := bench.Fig12(sc)
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkFig13ScaleUp(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		ta, tb := bench.Fig13(sc)
		if i == 0 {
			emit(b, ta, tb)
		}
	}
}

func BenchmarkFig14ScalingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig14()
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkFig15ModelAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig15()
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkAblationProactiveVsReactive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AblationProactiveVsReactive()
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkAblationDPBatching(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		t := bench.AblationDPBatching(sc)
		if i == 0 {
			emit(b, t)
		}
	}
}

func BenchmarkAblationPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AblationPartitioning()
		if i == 0 {
			emit(b, t)
		}
	}
}

// BenchmarkAblationQIBatching runs the full LoongServe engine with the
// quadrangle-inequality Eq 5 solver (§5.3's O((n+m)²) note) — identical
// schedules to the naive DP, measured here for scheduler overhead.
func BenchmarkAblationQIBatching(b *testing.B) {
	m := model.LWM1MText()
	hw := cluster.A800()
	trace := workload.PoissonTrace(workload.Mixed(), 0.5, 60, 42)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"naive", core.Options{}},
		{"qi", core.Options{UseQIBatching: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(m, hw, 1, 8, 2)
				if err != nil {
					b.Fatal(err)
				}
				recs, err := serving.Run(core.New(2, tc.opts), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) != 60 {
					b.Fatalf("completed %d", len(recs))
				}
			}
		})
	}
}

// --- hot-path micro-benchmarks ---

func BenchmarkCostModelPrefillIterTime(b *testing.B) {
	cm := costmodel.New(model.LWM1MText(), cluster.A800())
	hw := cluster.A800()
	link := cluster.Link{Bandwidth: hw.NVLinkBandwidth, Latency: hw.NVLinkLatency}
	lens := []int{100_000, 50_000, 2_000, 300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.PrefillIterTime(lens, 4, 2, link)
	}
}

func BenchmarkCostModelDecodeIterTime(b *testing.B) {
	cm := costmodel.New(model.LWM1MText(), cluster.A800())
	hw := cluster.A800()
	link := cluster.Link{Bandwidth: hw.NVLinkBandwidth, Latency: hw.NVLinkLatency}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.DecodeIterTime(128, 128*4096, 4, 2, 4, link)
	}
}

// decodeStepSink keeps BenchmarkCostModelDecodeStep's results live.
var decodeStepSink time.Duration

// BenchmarkCostModelDecodeStep times one fused decode window of 256
// iterations at BenchmarkCostModelDecodeIterTime's inputs: one DecodeStep,
// then one At per boundary as the resident KV grows by the batch.
func BenchmarkCostModelDecodeStep(b *testing.B) {
	cm := costmodel.New(model.LWM1MText(), cluster.A800())
	hw := cluster.A800()
	link := cluster.Link{Bandwidth: hw.NVLinkBandwidth, Latency: hw.NVLinkLatency}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := cm.DecodeStep(128, 4, 2, 4, link)
		for j := 0; j < 256; j++ {
			decodeStepSink += step.At(128*4096 + j*128)
		}
	}
}

func BenchmarkSIBFit(b *testing.B) {
	cm := costmodel.New(model.LWM1MText(), cluster.A800())
	hw := cluster.A800()
	link := cluster.Link{Bandwidth: hw.NVLinkBandwidth, Latency: hw.NVLinkLatency}
	prof := &costmodel.Profiler{CM: cm, Link: link, Jitter: 0.01, Seed: 1}
	sib := costmodel.NewSIB()
	prof.ProfilePrefill(sib, costmodel.Strategy{SP: 4, TP: 2}, costmodel.DefaultPrefillGrid(512_000))
	samples := sib.Prefill["sp4tp2"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := costmodel.FitPrefill(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetPolicies regenerates the fleet routing-policy comparison
// (multi-replica gateway, multi-turn session workload).
func BenchmarkFleetPolicies(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		emit(b, bench.FleetExperiment(sc))
	}
}

// BenchmarkServingLoongServeMixed measures end-to-end simulation throughput
// of the full LoongServe engine on a Mixed trace (requests simulated per
// wall-clock second are the benchmark currency).
func BenchmarkServingLoongServeMixed(b *testing.B) {
	m := model.LWM1MText()
	hw := cluster.A800()
	trace := workload.PoissonTrace(workload.Mixed(), 0.5, 100, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(m, hw, 1, 8, 2)
		if err != nil {
			b.Fatal(err)
		}
		recs, err := serving.Run(core.New(2, core.Options{}), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 100 {
			b.Fatalf("completed %d", len(recs))
		}
	}
}
