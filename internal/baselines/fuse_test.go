package baselines

import (
	"slices"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// TestContBatchDecodeFusionEventIdentity runs the golden traces, and a
// single-GPU replica of the fleets' contbatch kind, with decode fusion off
// and on. The records and preemptions must be identical, and the events
// fusion saved must be exactly those its stats account for: a completed
// window saves its interior events and a fissioned one the iterations it
// materialized, so unfused − fused = iters − windows + fissions. Any event
// that fires in one run and not the other breaks the identity.
func TestContBatchDecodeFusionEventIdentity(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	cm := costmodel.New(m, hw)
	tp8, err := cluster.New(m, hw, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	gpu1, err := cluster.New(m, hw, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	starved, scm := starvedCluster(t, 8, 4000)
	cases := []struct {
		name string
		tp   int
		c    *cluster.Cluster
		cm   *costmodel.CostModel
		tr   []workload.TimedRequest
	}{
		{"sharegpt", 8, tp8, cm, workload.PoissonTrace(workload.ShareGPT(), 20, 300, 3)},
		{"mixed", 8, tp8, cm, workload.PoissonTrace(workload.Mixed(), 0.3, 60, 4)},
		{"zipf", 8, tp8, cm, workload.PoissonTrace(workload.NewZipf(workload.Mixed(), 1.2, 200_000, 5), 0.5, 60, 5)},
		{"starved", 8, starved, scm, burstTrace(12, 50, 400)},
		{"sharegpt-1gpu", 1, gpu1, cm, workload.PoissonTrace(workload.ShareGPT(), 3, 300, 6)},
	}
	var total fusionStats
	for _, tc := range cases {
		run := func(unfused bool) ([]metrics.Record, uint64, *ContBatch) {
			eng := NewVLLM(tc.tp)
			eng.Unfused = unfused
			recs, st, err := serving.RunWithStats(eng, tc.c, tc.cm, tc.tr, serving.DefaultRunConfig())
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			checkRecords(t, recs, len(tc.tr))
			if eng.fuseK != 0 {
				t.Fatalf("%s: fused window still live after the run", tc.name)
			}
			return recs, st.Events, eng
		}
		plain, plainEvents, ref := run(true)
		fused, fusedEvents, eng := run(false)
		if !slices.Equal(plain, fused) || eng.Preemptions != ref.Preemptions {
			t.Fatalf("%s: fused run differs from unfused (preemptions %d vs %d)", tc.name, eng.Preemptions, ref.Preemptions)
		}
		fs := eng.fusion
		saved := int64(plainEvents) - int64(fusedEvents)
		if want := int64(fs.iters - fs.windows + fs.fissions); saved != want {
			t.Fatalf("%s: fusion saved %d events (%d → %d), stats %+v account for %d",
				tc.name, saved, plainEvents, fusedEvents, fs, want)
		}
		total.windows += fs.windows
		total.iters += fs.iters
		total.fissions += fs.fissions
	}
	if total.windows == 0 || total.fissions == 0 || total.fissions == total.windows {
		t.Fatalf("fusion stats %+v: the traces must launch windows, fission some and complete others", total)
	}
}

// probeRun replays trace on a fresh vLLM engine of the given TP, fused or
// not, on its own simulator, and reads the engine's Load at every probe
// time. Probes are staged before the run, so at a boundary's exact instant
// a probe reads the engine before that boundary's event fires, in both
// runs. It returns the readings, the time of every event that fired and
// the number of probes that found a fused window live. A probe inside a
// window also checks condition 3: admitPrefills must refuse.
func probeRun(t *testing.T, c *cluster.Cluster, cm *costmodel.CostModel, tp int, unfused bool,
	trace []workload.TimedRequest, probes []simevent.Time) (loads []serving.LoadStats, fired []simevent.Time, inside int) {
	t.Helper()
	sim := simevent.New()
	env := &serving.Env{Sim: sim, Cluster: c, CM: cm, Pool: c.NewPool(), Complete: func(*serving.Request) {}}
	eng := NewVLLM(tp)
	eng.Unfused = unfused
	if err := eng.Init(env); err != nil {
		t.Fatal(err)
	}
	for i, tr := range trace {
		r := &serving.Request{ID: kvcache.RequestID(i + 1), InputLen: tr.InputLen, OutputLen: tr.OutputLen, Arrival: simevent.Time(tr.Arrival)}
		sim.Stage(r.Arrival, func() { eng.Arrive(r) })
	}
	for _, at := range probes {
		sim.Stage(at, func() {
			if eng.fuseK > 0 {
				inside++
				if eng.admitPrefills() {
					t.Fatalf("at %v admitPrefills admitted a request inside a fused window", sim.Now())
				}
			}
			loads = append(loads, eng.Load())
		})
	}
	for sim.Step() {
		fired = append(fired, sim.Now())
	}
	if used := env.Pool.TotalUsed(); used != 0 {
		t.Fatalf("%d KV slots held after the run", used)
	}
	return loads, fired, inside
}

// TestContBatchFusedLoadMatchesUnfused reads Load mid-run from a fused and
// an unfused engine at the same instants: at every 7th event time of the
// unfused run, before that instant's engine event fires, and midway to the
// next event. Load must materialize exactly the boundaries strictly before
// now, so every reading must match.
func TestContBatchFusedLoadMatchesUnfused(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	cm := costmodel.New(m, hw)
	for _, tc := range []struct {
		name string
		tp   int
		tr   []workload.TimedRequest
	}{
		{"sharegpt-1gpu", 1, workload.PoissonTrace(workload.ShareGPT(), 3, 200, 8)},
		{"mixed", 8, workload.PoissonTrace(workload.Mixed(), 0.3, 30, 4)},
	} {
		c, err := cluster.New(m, hw, 1, tc.tp, tc.tp)
		if err != nil {
			t.Fatal(err)
		}
		_, fired, _ := probeRun(t, c, cm, tc.tp, true, tc.tr, nil)
		var probes []simevent.Time
		for i := 0; i+1 < len(fired); i += 7 {
			probes = append(probes, fired[i], fired[i]+(fired[i+1]-fired[i])/2)
		}
		plain, _, _ := probeRun(t, c, cm, tc.tp, true, tc.tr, probes)
		fused, _, inside := probeRun(t, c, cm, tc.tp, false, tc.tr, probes)
		if len(plain) != len(probes) || !slices.Equal(plain, fused) {
			t.Fatalf("%s: fused Load readings differ from unfused", tc.name)
		}
		if inside < len(probes)/4 {
			t.Fatalf("%s: only %d of %d probes read a live fused window", tc.name, inside, len(probes))
		}
	}
}
