package baselines

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// goldenEngine is one baseline of the behaviour golden. The starved case
// gives each instance about starvedTokens KV slots and replays a burst of
// burstN requests that overflows them mid-decode. A fusedTwin engine is
// another engine's fused build: its lines must equal the twin's in
// everything but the event count, which must be lower.
type goldenEngine struct {
	name          string
	tp            int
	build         func() serving.Engine
	starvedTokens int
	burstN        int
	burstOut      int
	fusedTwin     string
}

// unfusedVLLM is the vLLM baseline with decode fusion off, the reference
// the golden's vllm lines were captured from.
func unfusedVLLM() serving.Engine {
	e := NewVLLM(8)
	e.Unfused = true
	return e
}

var goldenEngines = []goldenEngine{
	{"vllm", 8, unfusedVLLM, 4000, 12, 400, ""},
	{"statichybrid", 2, func() serving.Engine { return NewStaticHybrid(4, 2) }, 1000, 12, 400, ""},
	{"splitfuse", 8, func() serving.Engine { return NewSplitFuse(8, 512) }, 4000, 12, 400, ""},
	{"distserve", 4, func() serving.Engine { return NewDistServe(4) }, 3000, 10, 300, ""},
	{"replicated", 2, func() serving.Engine { return NewReplicated(2) }, 1000, 12, 400, ""},
	{"vllm-fused", 8, func() serving.Engine { return NewVLLM(8) }, 4000, 12, 400, "vllm"},
}

// preemptionsOf reads a baseline's recompute-eviction counter; a replicated
// deployment sums its replicas.
func preemptionsOf(eng serving.Engine) int {
	switch e := eng.(type) {
	case *ContBatch:
		return e.Preemptions
	case *SplitFuse:
		return e.Preemptions
	case *DistServe:
		return e.Preemptions
	case *Replicated:
		n := 0
		for _, r := range e.replicas {
			n += r.Preemptions
		}
		return n
	}
	panic(fmt.Sprintf("golden: no preemption counter on %T", eng))
}

// goldenOutcome renders what one case produced: a hash over every
// record's ID, first-token and finish time in completion order, or, for an
// OOM abort, its request and limit.
func goldenOutcome(recs []metrics.Record, err error) string {
	var oom *serving.ErrOOM
	if errors.As(err, &oom) {
		return fmt.Sprintf("oom req=%d tokens=%d limit=%d", oom.Req, oom.Tokens, oom.Limit)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, r := range recs {
		for _, v := range []int64{r.ID, int64(r.FirstToken), int64(r.Finish)} {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("records=%d digest=%016x", len(recs), h.Sum64())
}

// goldenCase is one rendered case of the behaviour golden.
type goldenCase struct {
	outcome     string
	events      uint64
	preemptions int
}

func (c goldenCase) line(name string) string {
	return fmt.Sprintf("%s %s events=%d preemptions=%d\n", name, c.outcome, c.events, c.preemptions)
}

// TestBaselinesBehaviourGolden pins every baseline's scheduling behaviour
// bit for bit: every record, the event count and the preemption counter,
// on a ShareGPT trace, a Mixed trace, Fig 12's capped Zipf trace and a
// starved pool that forces recompute preemption. testdata/behaviour.golden
// was captured before the KV accounting became dense; a change that is
// meant to be behaviour-preserving must pass it unedited. The vllm lines
// run unfused; the vllm-fused lines, appended after decode fusion came,
// run the engine as NewVLLM builds it. Their event counts measure how
// often fusion applies, so a change to the fusion conditions may move them
// and nothing else.
func TestBaselinesBehaviourGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/behaviour.golden")
	if err != nil {
		t.Fatal(err)
	}
	m := model.LWM1MText()
	hw := cluster.A800()
	cm := costmodel.New(m, hw)
	sharegpt := workload.PoissonTrace(workload.ShareGPT(), 20, 300, 3)
	mixed := workload.PoissonTrace(workload.Mixed(), 0.3, 60, 4)
	// Fig 12's workload: Mixed lengths through a Zipf law, capped at 200K so
	// a TP=2 replica can hold every request.
	zipf := workload.PoissonTrace(workload.NewZipf(workload.Mixed(), 1.2, 200_000, 5), 0.5, 60, 5)
	var got bytes.Buffer
	cases := make(map[string]goldenCase)
	for _, ge := range goldenEngines {
		c, err := cluster.New(m, hw, 1, 8, ge.tp)
		if err != nil {
			t.Fatal(err)
		}
		sc, scm := starvedCluster(t, ge.tp, ge.starvedTokens)
		preempted := 0
		for _, tc := range []struct {
			trace string
			c     *cluster.Cluster
			cm    *costmodel.CostModel
			tr    []workload.TimedRequest
		}{
			{"sharegpt", c, cm, sharegpt},
			{"mixed", c, cm, mixed},
			{"zipf", c, cm, zipf},
			{"starved", sc, scm, burstTrace(ge.burstN, 50, ge.burstOut)},
		} {
			name := tc.trace + "/" + ge.name
			eng := ge.build()
			recs, st, err := serving.RunWithStats(eng, tc.c, tc.cm, tc.tr, serving.DefaultRunConfig())
			var oom *serving.ErrOOM
			if err != nil && !errors.As(err, &oom) {
				t.Fatalf("%s: %v", name, err)
			}
			if err == nil {
				checkRecords(t, recs, len(tc.tr))
			}
			gc := goldenCase{goldenOutcome(recs, err), st.Events, preemptionsOf(eng)}
			preempted += gc.preemptions
			got.WriteString(gc.line(name))
			cases[name] = gc
			if ge.fusedTwin == "" {
				continue
			}
			twin := cases[tc.trace+"/"+ge.fusedTwin]
			if gc.outcome != twin.outcome || gc.preemptions != twin.preemptions || gc.events >= twin.events {
				t.Errorf("%s: fused %q differs from its unfused twin's %q beyond fewer events", name, gc.line(name), twin.line(ge.fusedTwin))
			}
		}
		// Every engine must preempt somewhere, or the golden no longer
		// covers its recompute path.
		if preempted == 0 {
			t.Errorf("no golden case makes %s preempt", ge.name)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("baseline behaviour diverged from testdata/behaviour.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
