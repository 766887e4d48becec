package autoscale_test

import (
	"testing"
	"time"

	"loongserve/internal/autoscale"
	"loongserve/internal/fleet"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/workload"
)

// TestObsAutoscaleDecisions: every controller scaling decision mirrors
// into the observability stream — one KindAutoscale event per scale-up and
// per scale-down, labeled accordingly, alongside the replica lifecycle and
// engine events of the run.
func TestObsAutoscaleDecisions(t *testing.T) {
	scripts := burstyScripts(t, 200, 21)
	col := &obs.Collector{}
	res, err := autoscale.RunKinds(scripts,
		fleet.Config{Policy: fleet.NewMigratingAffinity(), Obs: col}, slowConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != workload.NumRequests(scripts) {
		t.Fatalf("%d of %d requests completed", len(res.Records), workload.NumRequests(scripts))
	}
	if res.ScaleUps == 0 || res.ScaleDowns == 0 {
		t.Fatalf("run did not scale both ways (ups %d, downs %d) — workload no longer exercises the controller", res.ScaleUps, res.ScaleDowns)
	}

	ups, downs := 0, 0
	for _, e := range col.Events {
		if e.Kind != obs.KindAutoscale {
			continue
		}
		switch e.Label {
		case "scale-up":
			ups++
			if e.A < 1 {
				t.Fatalf("scale-up decision with no active replicas: %+v", e)
			}
		case "scale-down":
			downs++
			if e.Replica < 0 {
				t.Fatalf("scale-down decision without a victim replica: %+v", e)
			}
		default:
			t.Fatalf("autoscale event with unexpected label %q", e.Label)
		}
	}
	if ups != res.ScaleUps || downs != res.ScaleDowns {
		t.Fatalf("obs saw %d/%d scale decisions, run accounted %d/%d", ups, downs, res.ScaleUps, res.ScaleDowns)
	}

	// The decision stream rides the same clock as the rest: lifecycle events
	// from the drains the controller ordered must be present too.
	counts := obs.Counts(col.Events)
	for _, k := range []obs.Kind{obs.KindProvision, obs.KindActivate, obs.KindDrain, obs.KindRetire, obs.KindMigrate} {
		if counts[k] == 0 {
			t.Errorf("no %v events in an elastic run (counts %v)", k, counts)
		}
	}
}

// TestAnalyzeAutoscaleRunClean: an elastic run — provisions, drains,
// retires and migrations ordered by the controller — passes the full
// stream audit, and every request's reconstructed critical path partitions
// its end-to-end latency exactly.
func TestAnalyzeAutoscaleRunClean(t *testing.T) {
	scripts := burstyScripts(t, 200, 21)
	col := &obs.Collector{}
	res, err := autoscale.RunKinds(scripts,
		fleet.Config{Policy: fleet.NewMigratingAffinity(), Obs: col}, slowConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps == 0 || res.ScaleDowns == 0 {
		t.Fatalf("run did not scale both ways (ups %d, downs %d)", res.ScaleUps, res.ScaleDowns)
	}
	rep := analyze.Attribute(col.Events)
	if len(rep.Requests) != len(res.Records) || rep.Incomplete != 0 {
		t.Fatalf("attributed %d finished + %d incomplete, want %d + 0",
			len(rep.Requests), rep.Incomplete, len(res.Records))
	}
	for _, a := range rep.Requests {
		var sum time.Duration
		for p := analyze.Phase(0); p < analyze.NumPhases; p++ {
			sum += a.Phases[p]
		}
		if sum != a.E2E() {
			t.Fatalf("request %d: phase sum %v != E2E %v", a.Request, sum, a.E2E())
		}
	}
	if vs := analyze.Audit(col.Events); len(vs) != 0 {
		t.Fatalf("audit found %d violations on an elastic run, first: %s", len(vs), vs[0])
	}
}
