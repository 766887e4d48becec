package fleet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"loongserve/internal/obs"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// obsTrace is the canonical session workload for observability tests.
func obsTrace() []workload.TimedRequest {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 24
	cfg.SessionRate = 4
	return workload.SessionTrace(cfg, 42)
}

// TestObsRequestLifecycle: with a sink attached, every request contributes
// its full event chain — exactly one enqueue, route, cache lookup and
// finish — with consistent kind-specific fields.
func TestObsRequestLifecycle(t *testing.T) {
	trace := obsTrace()
	col := &obs.Collector{}
	res, err := Run(trace, Config{Groups: toyFleet(3), Policy: NewPrefixAffinity(), Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(trace) {
		t.Fatalf("completed %d of %d", len(res.Records), len(trace))
	}

	counts := obs.Counts(col.Events)
	for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindRoute, obs.KindCacheLookup, obs.KindFinish} {
		if counts[k] != len(trace) {
			t.Fatalf("%v events: %d, want one per request (%d); all counts %v", k, counts[k], len(trace), counts)
		}
	}

	var last simevent.Time = -1
	for _, e := range col.Events {
		if e.At < last {
			t.Fatalf("event stream not chronological at %v", e.At)
		}
		last = e.At
		switch e.Kind {
		case obs.KindEnqueue:
			if e.Replica != -1 || e.Tokens <= 0 || e.A <= 0 {
				t.Fatalf("malformed enqueue: %+v", e)
			}
		case obs.KindRoute:
			if e.Replica < 0 || e.Replica >= 3 || e.Label != "PrefixAffinity" {
				t.Fatalf("malformed route: %+v", e)
			}
		case obs.KindCacheLookup:
			if e.Tokens < 0 || int64(e.Tokens) > e.A {
				t.Fatalf("cache hit %d exceeds input %d: %+v", e.Tokens, e.A, e)
			}
		case obs.KindFinish:
			// B = arrival, A = first token, At = finish: a valid timeline.
			if e.B > e.A || e.A > int64(e.At) {
				t.Fatalf("finish event with inverted timeline: %+v", e)
			}
			if e.Session == 0 || e.Request == 0 {
				t.Fatalf("finish without attribution: %+v", e)
			}
		}
	}
}

// TestObsOffPreservesResults: attaching a sink must observe, not perturb —
// records with and without observability are identical.
func TestObsOffPreservesResults(t *testing.T) {
	trace := obsTrace()
	plain, err := Run(trace, Config{Groups: toyFleet(3), Policy: NewPrefixAffinity()})
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	sampler := &obs.Sampler{Interval: 500 * time.Millisecond}
	observed, err := Run(trace, Config{Groups: toyFleet(3), Policy: NewPrefixAffinity(), Obs: col, Sampler: sampler})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Records) != len(observed.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(plain.Records), len(observed.Records))
	}
	for i := range plain.Records {
		if plain.Records[i] != observed.Records[i] {
			t.Fatalf("record %d differs with observability on:\noff %+v\non  %+v", i, plain.Records[i], observed.Records[i])
		}
	}
}

// TestObsDrainEmitsLifecycleAndMigrates: draining a replica mid-run shows
// up as drain + retire lifecycle events and session-attributed migrate
// events with the "drain" cause.
func TestObsDrainEmitsLifecycleAndMigrates(t *testing.T) {
	scripts := chatScripts(30, 6, 0.5, 3)
	col := &obs.Collector{}
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(3), Policy: NewPrefixAffinity(), Obs: col}, sim)
	if err != nil {
		t.Fatal(err)
	}
	feed := FeedSessions(g, scripts, true)
	sim.At(simevent.Time(simevent.FromSeconds(2)), func() {
		if err := g.DrainReplica(1); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if feed.Completed() != feed.Total() {
		t.Fatalf("%d of %d completed", feed.Completed(), feed.Total())
	}
	g.Finalize()

	counts := obs.Counts(col.Events)
	if counts[obs.KindDrain] != 1 || counts[obs.KindRetire] != 1 {
		t.Fatalf("drain/retire events %d/%d, want 1/1 (counts %v)", counts[obs.KindDrain], counts[obs.KindRetire], counts)
	}
	if counts[obs.KindMigrate] == 0 {
		t.Fatalf("no migrate events from a drain that evacuated sessions (counts %v)", counts)
	}
	attributed := 0
	for _, e := range col.Events {
		if e.Kind != obs.KindMigrate {
			continue
		}
		if e.Replica != 1 {
			t.Fatalf("migrate not attributed to the drained replica: %+v", e)
		}
		if e.Label != "drain" && e.Label != "handoff" {
			t.Fatalf("migrate with unexpected cause %q", e.Label)
		}
		if e.Tokens <= 0 || e.A < 0 || e.A == 1 {
			t.Fatalf("malformed migrate: %+v", e)
		}
		if e.Session != 0 {
			attributed++
		}
	}
	if attributed == 0 {
		t.Fatal("no migrate event carried a session identity (obsSessions map not populated)")
	}
}

// TestObsNilSinkEmitsAllocFree is the zero-overhead guard: with no sink
// attached, every emit helper on the gateway's request path costs zero
// allocations (one branch and out).
func TestObsNilSinkEmitsAllocFree(t *testing.T) {
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(2), Policy: NewRoundRobin()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if g.obsSink != nil {
		t.Fatal("sink attached without Config.Obs")
	}
	r := &serving.Request{ID: 1, InputLen: 100, OutputLen: 20}
	allocs := testing.AllocsPerRun(1000, func() {
		g.emitEnqueue(7, r)
		g.emitRoute(7, r.ID, 1, -1)
		g.emitCache(7, r.ID, 1, 50, 100)
		g.emitFinishID(1, 7, r.ID, r)
		g.emitMigrate(PrefixKey(99), 0, 1, 500, time.Millisecond, "drain")
		g.emitLifecycle("drain", 1)
		g.noteSession(PrefixKey(99), 7)
	})
	if allocs != 0 {
		t.Fatalf("nil-sink emit path allocates %.1f per round, want 0", allocs)
	}
}

// BenchmarkObsNilSinkEmit is the wall-clock companion of the AllocsPerRun
// guard: the whole disabled emit chain per request must stay in the
// low-nanosecond range (a handful of predicted branches).
func BenchmarkObsNilSinkEmit(b *testing.B) {
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(2), Policy: NewRoundRobin()}, sim)
	if err != nil {
		b.Fatal(err)
	}
	r := &serving.Request{ID: 1, InputLen: 100, OutputLen: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.emitEnqueue(7, r)
		g.emitRoute(7, r.ID, 1, -1)
		g.emitCache(7, r.ID, 1, 50, 100)
		g.emitFinishID(1, 7, r.ID, r)
	}
}

// TestObsSamplerCadence: the sampler ticks every Interval of simulated
// time, produces one fleet row per tick plus one row per active replica,
// and stops on its own when the run drains (fleet.Run returning at all is
// the liveness half of the property).
func TestObsSamplerCadence(t *testing.T) {
	trace := obsTrace()
	interval := 250 * time.Millisecond
	sampler := &obs.Sampler{Interval: interval}
	res, err := Run(trace, Config{Groups: toyFleet(2), Policy: NewRoundRobin(), Sampler: sampler})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(trace) {
		t.Fatalf("completed %d of %d", len(res.Records), len(trace))
	}
	fleetRows := sampler.FleetSamples()
	if len(fleetRows) < 2 {
		t.Fatalf("only %d fleet samples", len(fleetRows))
	}
	for i := 1; i < len(fleetRows); i++ {
		if got := time.Duration(fleetRows[i].At - fleetRows[i-1].At); got != interval {
			t.Fatalf("fleet samples %d→%d spaced %v, want %v", i-1, i, got, interval)
		}
	}
	// A static 2-replica fleet: every tick sees 2 active replicas and emits
	// 2 per-replica rows.
	if got, want := sampler.Len(), 2*len(fleetRows); got != want {
		t.Fatalf("%d per-replica samples for %d ticks, want %d", got, len(fleetRows), want)
	}
	for _, fs := range fleetRows {
		if fs.Active != 2 || fs.CostUnits <= 0 {
			t.Fatalf("malformed fleet sample: %+v", fs)
		}
	}
	// Sampling must not outlive the run by more than the natural tail: the
	// final tick is at most one interval past the last completion.
	lastFinish := time.Duration(0)
	for _, rec := range res.Records {
		if rec.Finish > lastFinish {
			lastFinish = rec.Finish
		}
	}
	if tail := time.Duration(fleetRows[len(fleetRows)-1].At) - lastFinish; tail > interval {
		t.Fatalf("sampler kept the simulation alive %v past the last completion", tail)
	}
}

// TestObsExportDeterministicAcrossArms is the acceptance determinism
// property: the same configuration run serially and inside concurrent
// goroutines (as the bench harness runs policy arms) yields byte-identical
// Chrome trace exports.
func TestObsExportDeterministicAcrossArms(t *testing.T) {
	trace := obsTrace()
	export := func() []byte {
		col := &obs.Collector{}
		sampler := &obs.Sampler{Interval: 500 * time.Millisecond}
		res, err := Run(trace, Config{Groups: toyFleet(3), Policy: NewPrefixAffinity(), Obs: col, Sampler: sampler})
		if err != nil {
			t.Error(err)
			return nil
		}
		kinds := make([]string, len(res.Replicas))
		for i, rs := range res.Replicas {
			kinds[i] = rs.Kind
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, col.Events, sampler, obs.ChromeOptions{ReplicaKinds: kinds, Policy: "PrefixAffinity"}); err != nil {
			t.Error(err)
			return nil
		}
		return buf.Bytes()
	}

	serial := export()
	if err := obs.ValidateChromeTrace(serial); err != nil {
		t.Fatalf("serial export invalid: %v", err)
	}

	const arms = 4
	parallel := make([][]byte, arms)
	var wg sync.WaitGroup
	for i := 0; i < arms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallel[i] = export()
		}(i)
	}
	wg.Wait()
	for i, p := range parallel {
		if !bytes.Equal(serial, p) {
			t.Fatalf("parallel arm %d exported different bytes than the serial run", i)
		}
	}
}

// TestObsRoutedMigrationAttribution: policy-directed migrations (the
// migrating-affinity policy rebalancing a hot session) appear with the
// "route" cause and a migration-source route event.
func TestObsRoutedMigrationAttribution(t *testing.T) {
	scripts := chatScripts(20, 8, 0.2, 7)
	col := &obs.Collector{}
	res, err := RunSessions(scripts, Config{Groups: toyFleet(3), Policy: NewMigratingAffinity(), Obs: col}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	wantMigrates := res.Migrations.Count
	counts := obs.Counts(col.Events)
	if counts[obs.KindMigrate] != wantMigrates {
		t.Fatalf("obs saw %d migrates, run accounted %d", counts[obs.KindMigrate], wantMigrates)
	}
}
