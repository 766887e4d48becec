package core

import (
	"fmt"
	"slices"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// fusionTraces are the golden traces plus a Mixed trace at 0.05 req/s, the
// benchmark's long-context regime, where decoding groups spend most of
// their life beside running prefills.
func fusionTraces() []goldenTrace {
	return append(goldenTraces(),
		goldenTrace{"mixed-0.05", 1, cluster.A800(), workload.PoissonTrace(workload.Mixed(), 0.05, 400, 1)})
}

// TestDecodeFusionEventIdentity runs every fusion trace under every golden
// engine option with fusion off and on. The records must be identical, and
// the events fusion saved must be exactly those its stats account for:
// a completed window saves its interior events and a fissioned one the
// iterations it materialized, so unfused − fused = Iters − Windows +
// Fissions. Any scheduler event that fires in one run and not the other
// breaks the identity.
func TestDecodeFusionEventIdentity(t *testing.T) {
	m := model.LWM1MText()
	var total DecodeFusionStats
	for _, tr := range fusionTraces() {
		c, err := cluster.New(m, tr.hw, tr.nodes, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		cm := costmodel.New(m, tr.hw)
		for _, o := range goldenOptions {
			if o.fuse {
				continue // the fused golden case is the default options, fused
			}
			name := tr.name + "/" + o.name
			run := func(fuse bool) ([]metrics.Record, uint64, *Engine) {
				eng := New(2, o.opts)
				eng.SetDecodeFusion(fuse)
				recs, st, err := serving.RunWithStats(eng, c, cm, tr.trace, serving.DefaultRunConfig())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := eng.CheckDrained(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return recs, st.Events, eng
			}
			plain, plainEvents, _ := run(false)
			fused, fusedEvents, eng := run(true)
			if !slices.Equal(plain, fused) {
				t.Fatalf("%s: fused records differ from unfused", name)
			}
			fs := eng.FusionStats()
			saved := int64(plainEvents) - int64(fusedEvents)
			if want := int64(fs.Iters - fs.Windows + fs.Fissions); saved != want {
				t.Fatalf("%s: fusion saved %d events (%d → %d), stats %+v account for %d",
					name, saved, plainEvents, fusedEvents, fs, want)
			}
			total.Windows += fs.Windows
			total.Iters += fs.Iters
			total.Fissions += fs.Fissions
		}
	}
	if total.Windows == 0 || total.Fissions == 0 || total.Fissions == total.Windows {
		t.Fatalf("fusion stats %+v: the traces must launch windows, fission some and complete others", total)
	}
}

// checkWindow verifies condition 1 and the prefill bound of a live fused
// window after any event and reports whether a prefill group runs beside
// it: the queue is empty, the fused group is the only decoding group, and
// every boundary before the last lies strictly before each running
// prefill's completion.
func checkWindow(e *Engine) (beside bool, err error) {
	g := e.fusedGroup
	if g == nil {
		return false, nil
	}
	if !g.running || g.phase != phaseDecode {
		return false, fmt.Errorf("window on group %d, which is not a running decoding group", g.id)
	}
	if len(e.pending) != 0 {
		return false, fmt.Errorf("window live with %d requests pending", len(e.pending))
	}
	ends := e.fusedEnds
	if len(ends) < 2 || e.fusedDone >= len(ends) {
		return false, fmt.Errorf("window with %d boundaries, %d materialized", len(ends), e.fusedDone)
	}
	for _, o := range e.groupList {
		if o == g {
			continue
		}
		if o.phase == phaseDecode {
			return false, fmt.Errorf("window on group %d beside decoding group %d", g.id, o.id)
		}
		if ends[len(ends)-2] >= o.prefillEnd {
			return false, fmt.Errorf("window runs to %v, past prefill group %d's completion at %v", ends[len(ends)-1], o.id, o.prefillEnd)
		}
		beside = true
	}
	return beside, nil
}

// TestFusedWindowRunsBesidePrefill steps the fused golden cases and the
// 0.05 req/s Mixed trace one event at a time and checks every live window
// against checkWindow. Some window must be live while a prefill group
// runs: that is the case the prefill bound exists for.
func TestFusedWindowRunsBesidePrefill(t *testing.T) {
	m := model.LWM1MText()
	besideEvents := 0
	for _, tr := range fusionTraces() {
		c, err := cluster.New(m, tr.hw, tr.nodes, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(2, Options{})
		var stepErr error
		runStepped(t, c, costmodel.New(m, tr.hw), tr, eng, func() {
			if stepErr != nil {
				return
			}
			beside, err := checkWindow(eng)
			if err != nil {
				stepErr = fmt.Errorf("%s at %v: %w", tr.name, eng.env.Sim.Now(), err)
			}
			if beside {
				besideEvents++
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if err := eng.CheckDrained(); err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
	}
	if besideEvents == 0 {
		t.Fatal("no fused window was ever live beside a running prefill")
	}
}
