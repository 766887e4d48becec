package core

import (
	"runtime"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// runFusedDrain runs one solo long-decode request with fusion enabled and
// returns the heap allocation count for the whole run plus the engine for
// fusion-stat checks.
func runFusedDrain(t *testing.T, outputLen int) (uint64, *Engine) {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2, Options{})
	eng.SetDecodeFusion(true)
	cm := costmodel.New(m, hw)
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 500, OutputLen: outputLen}}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, err := serving.Run(eng, c, cm, trace, serving.DefaultRunConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].OutputLen != outputLen {
		t.Fatalf("drain run completed %d records", len(recs))
	}
	return after.Mallocs - before.Mallocs, eng
}

// TestFusedDecodeDrainZeroAllocsPerIteration pins the fused decode window's
// steady-state cost: a solo drain fuses into O(1) windows regardless of
// output length, and the window itself allocates nothing per interior
// iteration — heap growth between a 4k-token and a 16k-token drain must be
// a small constant, not O(extra iterations).
func TestFusedDecodeDrainZeroAllocsPerIteration(t *testing.T) {
	short, shortEng := runFusedDrain(t, 4_000)
	long, longEng := runFusedDrain(t, 16_000)

	for _, st := range []struct {
		eng *Engine
		out int
	}{{shortEng, 4_000}, {longEng, 16_000}} {
		fs := st.eng.FusionStats()
		if fs.Windows < 1 || fs.Windows > 4 {
			t.Fatalf("solo %d-token drain launched %d fused windows, want O(1)", st.out, fs.Windows)
		}
		if fs.Iters < st.out-4 {
			t.Fatalf("solo %d-token drain fused only %d iterations", st.out, fs.Iters)
		}
	}

	extraIters := float64(16_000 - 4_000)
	var delta float64
	if long > short {
		delta = float64(long - short)
	}
	if perIter := delta / extraIters; perIter > 0.05 {
		t.Fatalf("fused drain allocates %.3f objects per interior iteration (%d vs %d mallocs); interior iterations must not allocate", perIter, long, short)
	}
}

// TestFusedWindowLaunchAllocatesNothing pins the engine-owned window
// buffer: once one window has run, fissioning it (what an arrival does
// first) and launching the next allocates nothing. Each measured run
// fissions the live window, fires the re-armed in-flight iteration as a
// normal decode event, and lets schedule relaunch a window over the rest
// of the decode.
func TestFusedWindowLaunchAllocatesNothing(t *testing.T) {
	sim, eng, r := loneLongDecode(t, 5_000)
	for eng.fusedGroup == nil && sim.Step() {
	}
	if eng.fusedGroup == nil || len(eng.fusedGroup.instances) < 2 {
		t.Fatal("no fused window over a multi-instance group after the prefill")
	}
	before, generated := eng.FusionStats(), r.Generated
	const runs = 100
	if avg := testing.AllocsPerRun(runs, func() {
		eng.fissionFused()
		if !sim.Step() || eng.fusedGroup == nil {
			t.Fatal("no window relaunched after the in-flight iteration")
		}
	}); avg != 0 {
		t.Fatalf("fission and window relaunch allocate %.2f objects per cycle, want 0", avg)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	after := eng.FusionStats()
	if w, f := after.Windows-before.Windows, after.Fissions-before.Fissions; w != runs+1 || f != runs+1 {
		t.Fatalf("measured %d window launches and %d fissions, want %d each", w, f, runs+1)
	}
	if r.Generated != generated+runs+1 || after.Iters != before.Iters {
		t.Fatalf("cycles were not one plain iteration each: generated %d→%d, fused iterations %d→%d",
			generated, r.Generated, before.Iters, after.Iters)
	}
}
