package fleet

import (
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/kvcache"
	"loongserve/internal/model"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// phaseSum folds one attribution's phases.
func phaseSum(a analyze.Attribution) time.Duration {
	var sum time.Duration
	for p := analyze.Phase(0); p < analyze.NumPhases; p++ {
		sum += a.Phases[p]
	}
	return sum
}

// requireExactAndClean asserts the tentpole's two acceptance properties on
// a finished run's stream: every attribution's phases sum to its
// end-to-end latency exactly, and the auditor finds nothing.
func requireExactAndClean(t *testing.T, events []obs.Event, wantFinished int) *analyze.Report {
	t.Helper()
	rep := analyze.Attribute(events)
	if len(rep.Requests) != wantFinished || rep.Incomplete != 0 {
		t.Fatalf("attributed %d finished + %d incomplete, want %d + 0",
			len(rep.Requests), rep.Incomplete, wantFinished)
	}
	for _, a := range rep.Requests {
		if sum := phaseSum(a); sum != a.E2E() {
			t.Fatalf("request %d: phase sum %v != E2E %v (phases %v)", a.Request, sum, a.E2E(), a.Phases)
		}
	}
	if vs := analyze.Audit(events); len(vs) != 0 {
		t.Fatalf("audit found %d violations on a healthy run, first: %s", len(vs), vs[0])
	}
	return rep
}

// TestAnalyzeFleetAttributionExactAndClean: on plain fleet runs across
// policies, the reconstructed critical paths partition each request's
// latency exactly, agree with the driver's own records, and the stream
// passes the full audit.
func TestAnalyzeFleetAttributionExactAndClean(t *testing.T) {
	for _, pol := range []Policy{NewRoundRobin(), NewPrefixAffinity(), NewMigratingAffinity()} {
		t.Run(pol.Name(), func(t *testing.T) {
			trace := obsTrace()
			col := &obs.Collector{}
			res, err := Run(trace, Config{Groups: toyFleet(3), Policy: pol, Obs: col})
			if err != nil {
				t.Fatal(err)
			}
			rep := requireExactAndClean(t, col.Events, len(trace))

			// The stream-derived view must agree with the driver's records:
			// same arrival, same end-to-end latency, same SLO verdict.
			type key struct {
				arr, e2e time.Duration
				miss     bool
			}
			byID := make(map[int64]key, len(res.Records))
			for _, r := range res.Records {
				byID[r.ID] = key{r.Arrival, r.E2E(), !r.MeetsSLO()}
			}
			for _, a := range rep.Requests {
				want, ok := byID[a.Request]
				if !ok {
					t.Fatalf("attributed request %d has no record", a.Request)
				}
				if a.Arrival != want.arr || a.E2E() != want.e2e || a.SLOMiss() != want.miss {
					t.Fatalf("request %d: stream says arrival %v e2e %v miss %v, record says %v %v %v",
						a.Request, a.Arrival, a.E2E(), a.SLOMiss(), want.arr, want.e2e, want.miss)
				}
			}
		})
	}
}

// TestAnalyzeDrainRunClean: a run with a mid-flight drain — lifecycle
// events, drain migrations, handoffs — still audits clean and attributes
// every request.
func TestAnalyzeDrainRunClean(t *testing.T) {
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
	g.Finalize()
	if feed.Completed() != feed.Total() {
		t.Fatalf("%d of %d completed", feed.Completed(), feed.Total())
	}
	requireExactAndClean(t, col.Events, feed.Total())
}

// TestAnalyzeHeteroRunClean: a mixed-kind fleet under CapabilityAffinity
// with real engines (so engine-bridged prefill-start events exist and the
// prefill-wait phase is exercised) audits clean with exact attributions.
func TestAnalyzeHeteroRunClean(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	loong := NewKind("loong", Spec{
		NewEngine: func() serving.Engine { return core.New(2, core.Options{}) },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 4, 2)
		},
	})
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 24
	cfg.SessionRate = 8
	cfg.MinTurns, cfg.MaxTurns = 2, 3
	cfg.ThinkMean = 0.2
	scripts := workload.SessionScripts(cfg, 9)

	col := &obs.Collector{}
	res, err := RunSessions(scripts, Config{
		Groups: []ReplicaGroup{{Kind: loong, Count: 1}},
		Policy: NewCapabilityAffinity(),
		Obs:    col,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := requireExactAndClean(t, col.Events, len(res.Records))

	counts := obs.Counts(col.Events)
	if counts[obs.KindPrefillStart] == 0 {
		t.Fatal("core-engine run produced no prefill-start events — prefill-wait phase untested")
	}
	var waited int
	for _, a := range rep.Requests {
		if a.Phases[analyze.PhasePrefillWait] > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Fatal("no request attributed any prefill-wait despite engine prefill-start events")
	}
}

// forceMigratePolicy drives the re-enqueue scenario deterministically: the
// first request of a session lands on replica 0; once the session's KV is
// warm there, the next request is migrated to replica 1 — and the policy
// schedules replica 1's drain for the middle of that transfer, forcing the
// gateway's mid-transfer re-enqueue path.
type forceMigratePolicy struct {
	g     *Gateway
	sim   *simevent.Sim
	fired bool
}

func (p *forceMigratePolicy) Name() string { return "ForceMigrate" }

func (p *forceMigratePolicy) Pick(_ RequestInfo, _ []ReplicaView) int { return 0 }

func (p *forceMigratePolicy) PickMigrate(req RequestInfo, reps []ReplicaView, m Migrator) Decision {
	if p.fired || len(reps) < 2 {
		return Decision{Dest: 0, From: -1}
	}
	tokens := reps[0].SessionTokens(req)
	if tokens == 0 {
		return Decision{Dest: 0, From: -1} // first turn: warm replica 0
	}
	p.fired = true
	// The transfer the gateway is about to start takes MigrationSeconds;
	// drain the destination halfway through it.
	half := time.Duration(m.MigrationSeconds(tokens) / 2 * float64(time.Second))
	p.sim.After(half, func() {
		if err := p.g.DrainReplica(1); err != nil {
			panic(err)
		}
	})
	return Decision{Dest: 1, From: 0}
}

// TestAnalyzeReenqueueSingleFinish pins the double-Enqueue semantics the
// auditor and attribution depend on: a request whose migration destination
// drains mid-transfer re-enqueues (a second Enqueue and Route in Counts),
// finishes exactly once, is attributed a positive re-enqueue phase that
// still sums exactly, and the whole stream audits clean.
func TestAnalyzeReenqueueSingleFinish(t *testing.T) {
	sim := simevent.New()
	col := &obs.Collector{}
	pol := &forceMigratePolicy{sim: sim}
	g, err := NewGateway(Config{Groups: toyFleet(3), Policy: pol, Obs: col}, sim)
	if err != nil {
		t.Fatal(err)
	}
	pol.g = g

	const session = int64(77)
	submit := func(id int, in, prefix, out int, at time.Duration) {
		e := workload.Entry{InputLen: in, PrefixLen: prefix, OutputLen: out, SessionID: session,
			Blocks: sessionBlocks(session, in+out)}
		r := &serving.Request{
			ID: kvcache.RequestID(id), InputLen: in, OutputLen: out,
			Arrival: simevent.Time(at),
		}
		sim.At(simevent.Time(at), func() { g.Submit(r, e) })
	}
	submit(1, 60_000, 0, 100, 0)
	// Second turn well after the first finishes (toyEngine latencies are
	// sub-second); it carries the prior turn's context as its prefix, so
	// replica 0 reports resident session KV and the policy migrates it —
	// triggering the mid-transfer drain.
	submit(2, 80_000, 60_100, 100, 30*time.Second)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	g.Finalize()

	if !pol.fired {
		t.Fatal("scenario never reached the migrate decision")
	}
	counts := obs.Counts(col.Events)
	if counts[obs.KindEnqueue] != 3 || counts[obs.KindRoute] != 3 || counts[obs.KindFinish] != 2 {
		t.Fatalf("counts enqueue/route/finish = %d/%d/%d, want 3/3/2 (one re-enqueue, exactly one finish each)",
			counts[obs.KindEnqueue], counts[obs.KindRoute], counts[obs.KindFinish])
	}

	rep := requireExactAndClean(t, col.Events, 2)
	if rep.Reenqueued != 1 {
		t.Fatalf("report counts %d re-enqueued requests, want 1", rep.Reenqueued)
	}
	var a2 *analyze.Attribution
	for i := range rep.Requests {
		if rep.Requests[i].Request == 2 {
			a2 = &rep.Requests[i]
		}
	}
	if a2 == nil {
		t.Fatal("request 2 not attributed")
	}
	if a2.Enqueues != 2 {
		t.Fatalf("request 2 attributed %d enqueues, want 2", a2.Enqueues)
	}
	if a2.Phases[analyze.PhaseReenqueue] <= 0 {
		t.Fatalf("request 2 re-enqueue phase = %v, want > 0 (abandoned transfer time)", a2.Phases[analyze.PhaseReenqueue])
	}
	// The re-routed request must not have landed on the drained replica.
	if a2.Replica == 1 {
		t.Fatal("request 2 finished on the drained replica")
	}
}
