package core

import (
	"strings"
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/model"
	"loongserve/internal/obs"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// obsTrace is a small workload that exercises the elastic actions whose
// events the engine must emit.
func obsTrace() []workload.TimedRequest {
	return []workload.TimedRequest{
		{Entry: workload.Entry{InputLen: 60_000, OutputLen: 100}, Arrival: 0},
		{Entry: workload.Entry{InputLen: 500, OutputLen: 200}, Arrival: 50 * time.Millisecond},
		{Entry: workload.Entry{InputLen: 400, OutputLen: 150}, Arrival: 80 * time.Millisecond},
	}
}

func runObs(t *testing.T, eng *Engine) {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := serving.Run(eng, c, costmodel.New(m, hw), obsTrace(), serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("completed %d requests", len(recs))
	}
}

// TestAttachObsSinkForwardOnly: with a sink attached, every elastic event
// streams into it as an engine kind attributed to the given replica and
// carrying its group's degree of parallelism.
func TestAttachObsSinkForwardOnly(t *testing.T) {
	eng := New(2, Options{})
	col := &obs.Collector{}
	eng.AttachObsSink(col, 3)
	runObs(t, eng)

	if len(col.Events) == 0 {
		t.Fatal("no events emitted")
	}
	counts := obs.Counts(col.Events)
	if counts[obs.KindPrefillStart]+counts[obs.KindPiggyback] < 2 {
		t.Fatalf("too few prefill events: %v", counts)
	}
	if counts[obs.KindDissolve] == 0 {
		t.Fatalf("no dissolve events: %v", counts)
	}
	for _, e := range col.Events {
		if !e.Kind.EngineKind() {
			t.Fatalf("engine emitted non-engine kind %v", e.Kind)
		}
		if e.Replica != 3 {
			t.Fatalf("event not attributed to replica 3: %+v", e)
		}
		if e.Group < 0 || e.A <= 0 {
			t.Fatalf("event without a group or degree of parallelism: %+v", e)
		}
	}
}

// TestObsRecordsLifecycle: the Fig 6 lifecycle reaches the sink with
// prefill and dissolve events, in simulated-time order, and obs.Timeline
// renders it.
func TestObsRecordsLifecycle(t *testing.T) {
	eng := New(2, Options{})
	col := &obs.Collector{}
	eng.AttachObsSink(col, 0)
	runObs(t, eng)

	counts := obs.Counts(col.Events)
	if counts[obs.KindPrefillStart]+counts[obs.KindPiggyback] < 2 {
		t.Fatalf("too few prefill events: %v", counts)
	}
	if counts[obs.KindDissolve] == 0 {
		t.Fatalf("no dissolve events: %v", counts)
	}
	var last simevent.Time
	for _, e := range col.Events {
		if e.At < last {
			t.Fatalf("events not in time order at %+v", e)
		}
		last = e.At
	}
	var sb strings.Builder
	obs.Timeline(&sb, col.Events)
	if !strings.Contains(sb.String(), "prefill-start") {
		t.Fatalf("timeline missing prefill-start:\n%s", sb.String())
	}
}

// TestAttachObsSinkNil: a nil sink leaves the engine without one, and
// attaching nil after a sink detaches it before the run.
func TestAttachObsSinkNil(t *testing.T) {
	eng := New(2, Options{})
	eng.AttachObsSink(nil, 0)
	if eng.sink != nil {
		t.Fatal("nil attach left a sink")
	}
	col := &obs.Collector{}
	eng.AttachObsSink(col, 0)
	eng.AttachObsSink(nil, 0)
	runObs(t, eng)
	if len(col.Events) != 0 {
		t.Fatalf("detached sink received %d events", len(col.Events))
	}
}

// obsGroup is a decoding group of 2 instances and 3 requests.
func obsGroup() *group {
	return &group{id: 7, phase: phaseDecode, instances: []kvcache.InstanceID{0, 1}, reqs: make([]*serving.Request, 3)}
}

// TestObsEmitWithoutSinkNilSafe: an engine without a sink returns before
// it reads the group or the simulator, so a nil group must not panic.
func TestObsEmitWithoutSinkNilSafe(t *testing.T) {
	eng := New(2, Options{})
	eng.emit(obs.KindScaleUp, nil, 0)
}

// TestObsEmitWithoutSinkAllocFree: the disabled hot path, as every decode
// step of an engine without a sink issues it, costs zero allocations.
func TestObsEmitWithoutSinkAllocFree(t *testing.T) {
	eng := New(2, Options{})
	g := obsGroup()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.emit(obs.KindScaleUp, g, 128)
	})
	if allocs != 0 {
		t.Fatalf("emit without a sink allocates %.1f per call, want 0", allocs)
	}
}

// TestObsEmitAllocFree: emitting into a warmed collector allocates
// nothing, and the event carries the group's id, degree of parallelism,
// batch size and the replica index.
func TestObsEmitAllocFree(t *testing.T) {
	eng := New(2, Options{})
	eng.env = &serving.Env{Sim: simevent.New()}
	col := &obs.Collector{}
	eng.AttachObsSink(col, 5)
	g := obsGroup()
	for i := 0; i < 128; i++ {
		eng.emit(obs.KindScaleUp, g, i)
	}
	want := obs.Event{Kind: obs.KindScaleUp, Replica: 5, Group: 7, Tokens: 1, A: 2, B: 3}
	if col.Events[1] != want {
		t.Fatalf("emitted %+v, want %+v", col.Events[1], want)
	}
	col.Reset()
	var i int
	allocs := testing.AllocsPerRun(100, func() {
		if i == 128 {
			col.Reset()
			i = 0
		}
		eng.emit(obs.KindScaleUp, g, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("emit allocates %.1f per call, want 0", allocs)
	}
}
