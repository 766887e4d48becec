package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// squeezedA800 returns A800 hardware whose activation reserve leaves each
// TP=2 instance of model m about slots KV token slots, so a modest trace
// runs the pool dry mid-decode.
func squeezedA800(m model.Config, slots int) cluster.Hardware {
	hw := cluster.A800()
	const tp = 2
	hw.ActReserveBytes = (tp*hw.HBMBytes - m.WeightBytes() - int64(slots)*m.KVBytesPerToken()) / tp
	return hw
}

// goldenTrace is one workload of the core behaviour golden.
type goldenTrace struct {
	name  string
	nodes int
	hw    cluster.Hardware
	trace []workload.TimedRequest
}

// goldenTraces covers the engine's mechanisms: Mixed on one node (scale-up,
// borrowing, evacuation) and on two, ShareGPT at a rate that builds decode
// batches above 50, and the squeezed pool that forces preemptions.
func goldenTraces() []goldenTrace {
	m := model.LWM1MText()
	mixed := workload.PoissonTrace(workload.Mixed(), 0.5, 300, 4)
	return []goldenTrace{
		{"mixed-1node", 1, cluster.A800(), mixed},
		{"mixed-2node", 2, cluster.A800(), mixed},
		{"sharegpt", 1, cluster.A800(), workload.PoissonTrace(workload.ShareGPT(), 20, 400, 3)},
		{"squeezed", 1, squeezedA800(m, 2_000), workload.PoissonTrace(workload.ShareGPT(), 6.0, 60, 10)},
	}
}

// goldenOption is one engine configuration of the core behaviour golden.
type goldenOption struct {
	name string
	opts Options
	fuse bool
}

var goldenOptions = []goldenOption{
	{"default", Options{}, false},
	{"noscaleup", Options{DisableScaleUp: true}, false},
	{"nodp", Options{DisableDPBatching: true}, false},
	{"noborrow", Options{DisableBorrowing: true}, false},
	{"qi", Options{UseQIBatching: true}, false},
	{"fused", Options{}, true},
}

// goldenCounters are the engine counters one golden line pins.
type goldenCounters struct {
	ScaleUps, ScaleDowns, Preemptions, Borrows, Migrations int
	MigratedTokens, MaxDecodeBS, MaxGroups                 int
}

func countersOf(e *Engine) goldenCounters {
	return goldenCounters{
		ScaleUps: len(e.ScaleUps), ScaleDowns: e.ScaleDowns, Preemptions: e.Preemptions,
		Borrows: e.Borrows, Migrations: e.Migrations, MigratedTokens: e.MigratedTokens,
		MaxDecodeBS: e.MaxDecodeBS, MaxGroups: e.MaxGroups,
	}
}

// goldenLine renders one case: a hash over every record's ID, first-token
// and finish time in completion order, the simulator event count and the
// engine counters.
func goldenLine(name string, recs []metrics.Record, events uint64, e *Engine) string {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range recs {
		for _, v := range []int64{r.ID, int64(r.FirstToken), int64(r.Finish)} {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	c := countersOf(e)
	return fmt.Sprintf("%s records=%d digest=%016x events=%d scaleups=%d scaledowns=%d preemptions=%d borrows=%d migrations=%d migrated_tokens=%d max_decode_bs=%d max_groups=%d\n",
		name, len(recs), h.Sum64(), events, c.ScaleUps, c.ScaleDowns, c.Preemptions,
		c.Borrows, c.Migrations, c.MigratedTokens, c.MaxDecodeBS, c.MaxGroups)
}

// TestCoreBehaviourGolden pins the engine's scheduling behaviour bit for
// bit: every record, the event count and every counter, for each golden
// trace under each option set. testdata/behaviour.golden was captured
// before the engine's mastership state became dense; a change that is
// meant to be behaviour-preserving must pass it unedited. The fused lines'
// event counts are the one exception: they measure how often fusion
// applies, not what the engine does, so a change to the fusion conditions
// may move them and nothing else.
func TestCoreBehaviourGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/behaviour.golden")
	if err != nil {
		t.Fatal(err)
	}
	m := model.LWM1MText()
	var got bytes.Buffer
	var seen goldenCounters
	for _, tr := range goldenTraces() {
		c, err := cluster.New(m, tr.hw, tr.nodes, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		cm := costmodel.New(m, tr.hw)
		for _, o := range goldenOptions {
			name := tr.name + "/" + o.name
			eng := New(2, o.opts)
			eng.SetDecodeFusion(o.fuse)
			recs, st, err := serving.RunWithStats(eng, c, cm, tr.trace, serving.DefaultRunConfig())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(recs) != len(tr.trace) {
				t.Fatalf("%s: completed %d of %d requests", name, len(recs), len(tr.trace))
			}
			if err := eng.CheckDrained(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got.WriteString(goldenLine(name, recs, st.Events, eng))
			c := countersOf(eng)
			seen.ScaleUps += c.ScaleUps
			seen.ScaleDowns += c.ScaleDowns
			seen.Preemptions += c.Preemptions
			seen.Borrows += c.Borrows
			seen.Migrations += c.Migrations
			seen.MigratedTokens += c.MigratedTokens
			seen.MaxDecodeBS += c.MaxDecodeBS
			seen.MaxGroups += c.MaxGroups
		}
	}
	// Every counter must move somewhere, or the golden no longer covers the
	// mechanism behind it.
	for name, v := range map[string]int{
		"ScaleUps": seen.ScaleUps, "ScaleDowns": seen.ScaleDowns, "Preemptions": seen.Preemptions,
		"Borrows": seen.Borrows, "Migrations": seen.Migrations, "MigratedTokens": seen.MigratedTokens,
		"MaxDecodeBS": seen.MaxDecodeBS, "MaxGroups": seen.MaxGroups,
	} {
		if v == 0 {
			t.Errorf("no golden case exercises %s", name)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("core behaviour diverged from testdata/behaviour.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
