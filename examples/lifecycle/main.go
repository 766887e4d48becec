// Lifecycle: replay the paper's Fig 6 — the lifecycle of batches across
// elastic instances — and print the global manager's execution trace: batch
// B1 prefills wide and proactively scales down, B2 arrives and does the
// same, groups scale up as decoding progresses, and everything dissolves as
// requests finish.
package main

import (
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

func main() {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		log.Fatal(err)
	}
	eng := core.New(2, core.Options{})
	tracer := eng.AttachTracer()

	// Two waves of requests, echoing Fig 6's B1 and B2, plus a late burst
	// of chats that piggybacks onto the decoding groups.
	trace := []workload.TimedRequest{
		{Entry: workload.Entry{InputLen: 80_000, OutputLen: 300}, Arrival: 0},
		{Entry: workload.Entry{InputLen: 40_000, OutputLen: 200}, Arrival: 200 * time.Millisecond},
	}
	for i := 0; i < 12; i++ {
		trace = append(trace, workload.TimedRequest{
			Entry:   workload.Entry{InputLen: 300 + 40*i, OutputLen: 120},
			Arrival: 2*time.Second + time.Duration(i)*120*time.Millisecond,
		})
	}

	recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d requests; elastic event log:\n\n", len(recs))
	tracer.Timeline(os.Stdout)
	fmt.Println("\nevent totals:")
	counts := tracer.Counts()
	for _, kind := range slices.Sorted(maps.Keys(counts)) {
		fmt.Printf("  %-14s %d\n", kind, counts[kind])
	}
}
