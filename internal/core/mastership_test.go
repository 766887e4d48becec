package core

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// checkMastership recounts every live group's masters from its masters
// slice and compares the result with the per-instance counts and the
// distinct-master count the engine maintains incrementally. It also checks
// that every decoding request has a master inside its group, that byInst
// only points at live groups that contain the instance, and that
// groupList stays in ascending-id order.
func checkMastership(e *Engine) error {
	recount := make([]int, len(e.byInst))
	for k, g := range e.groupList {
		if k > 0 && e.groupList[k-1].id >= g.id {
			return fmt.Errorf("groupList out of order at group %d", g.id)
		}
		if len(g.masters) != len(g.reqs) {
			return fmt.Errorf("group %d: %d masters for %d requests", g.id, len(g.masters), len(g.reqs))
		}
		clear(recount)
		distinct := 0
		for i, m := range g.masters {
			if m == noMaster || !instIn(g.instances, m) {
				return fmt.Errorf("group %d: request %d mastered on %d, outside instances %v", g.id, g.reqs[i].ID, m, g.instances)
			}
			if recount[m]++; recount[m] == 1 {
				distinct++
			}
		}
		if len(g.reqs) > 0 && !slices.Equal(recount, g.mastered) {
			return fmt.Errorf("group %d: per-instance master counts %v, recounted %v", g.id, g.mastered, recount)
		}
		if g.distinct != distinct {
			return fmt.Errorf("group %d: distinct masters %d, recounted %d", g.id, g.distinct, distinct)
		}
	}
	for id, g := range e.byInst {
		if g != nil && (!slices.Contains(e.groupList, g) || !instIn(g.instances, kvcache.InstanceID(id))) {
			return fmt.Errorf("instance %d indexed to group %d, which is retired or does not contain it", id, g.id)
		}
	}
	return nil
}

// runStepped replays a trace exactly as serving.RunWithStats does, but
// drives the simulator one event at a time and calls after following every
// event.
func runStepped(t *testing.T, c *cluster.Cluster, cm *costmodel.CostModel, tr goldenTrace, eng *Engine, after func()) ([]metrics.Record, uint64) {
	t.Helper()
	sim := simevent.New()
	var recs []metrics.Record
	env := &serving.Env{Sim: sim, Cluster: c, CM: cm, Pool: c.NewPool(),
		Complete: func(r *serving.Request) { recs = append(recs, r.Record()) }}
	if err := eng.Init(env); err != nil {
		t.Fatal(err)
	}
	cfg := serving.DefaultRunConfig()
	gpus := 0
	for _, inst := range c.Instances {
		gpus += inst.TP
	}
	for i, tr := range tr.trace {
		r := &serving.Request{
			ID:        kvcache.RequestID(i + 1),
			InputLen:  tr.InputLen,
			OutputLen: tr.OutputLen,
			Arrival:   simevent.Time(tr.Arrival),
			SLOBudget: serving.SLOBudget(cm, gpus, tr.InputLen, tr.OutputLen, cfg.SLOScale),
		}
		sim.Stage(r.Arrival, func() { eng.Arrive(r) })
	}
	for sim.Step() {
		after()
	}
	return recs, sim.Fired()
}

// TestMastershipCountsStayConsistent replays every golden case one event
// at a time and recounts mastership after each event, so a write that
// bypasses setMaster shows up at the event that made it. The stepped
// driver must also reproduce the golden line, which ties it to
// serving.RunWithStats.
func TestMastershipCountsStayConsistent(t *testing.T) {
	golden, err := os.ReadFile("testdata/behaviour.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(golden), "\n")
	m := model.LWM1MText()
	line := 0
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
			var stepErr error
			recs, events := runStepped(t, c, cm, tr, eng, func() {
				if stepErr == nil {
					if err := checkMastership(eng); err != nil {
						stepErr = fmt.Errorf("%s at %v: %w", name, eng.env.Sim.Now(), err)
					}
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if err := eng.CheckDrained(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := goldenLine(name, recs, events, eng); line >= len(want) || got != want[line] {
				t.Fatalf("stepped replay diverged from the golden:\n got %s", got)
			}
			line++
		}
	}
}

// loneLongDecode stages one request with a 300K-token prompt on an
// initialized 8-GPU engine of four TP=2 instances. The prompt needs two
// instances, so the group decodes with one master beside an instance that
// only holds KV: every decode launch walks the KV placement to prove the
// shrink check a no-op.
func loneLongDecode(t *testing.T, outputLen int) (*simevent.Sim, *Engine, *serving.Request) {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := simevent.New()
	env := &serving.Env{Sim: sim, Cluster: c, CM: costmodel.New(m, hw), Pool: c.NewPool(),
		Complete: func(*serving.Request) {}}
	eng := New(2, Options{})
	if err := eng.Init(env); err != nil {
		t.Fatal(err)
	}
	r := &serving.Request{ID: 1, InputLen: 300_000, OutputLen: outputLen}
	sim.Stage(0, func() { eng.Arrive(r) })
	return sim, eng, r
}

// TestSteadyDecodeStepAllocatesNothing pins the cost of the unfused decode
// step: once a multi-instance group decodes alone, each event runs
// decodeIterDone → schedule → launchDecode with no group change and must
// not allocate. Fusion is off, or the lone group would decode in windows.
func TestSteadyDecodeStepAllocatesNothing(t *testing.T) {
	sim, eng, r := loneLongDecode(t, 1_000)
	eng.SetDecodeFusion(false)
	for r.Generated < 10 && sim.Step() {
	}
	if len(eng.groupList) != 1 || eng.groupList[0].phase != phaseDecode {
		t.Fatalf("no lone decoding group after the prefill (%d groups)", len(eng.groupList))
	}
	g := eng.groupList[0]
	if len(g.instances) < 2 || g.distinct >= len(g.instances) {
		t.Fatalf("group has %d instances and %d masters; want an instance that only holds KV", len(g.instances), g.distinct)
	}
	insts := slices.Clone(g.instances)
	before := r.Generated
	const runs = 100
	if avg := testing.AllocsPerRun(runs, func() {
		if !sim.Step() {
			t.Fatal("simulation drained mid-measurement")
		}
	}); avg != 0 {
		t.Fatalf("steady decode step allocates %.2f objects per iteration, want 0", avg)
	}
	if r.Generated != before+runs+1 || !slices.Equal(g.instances, insts) || len(eng.groupList) != 1 {
		t.Fatalf("measured steps were not plain decode iterations: generated %d→%d, instances %v→%v",
			before, r.Generated, insts, g.instances)
	}
}
