package main

import (
	"testing"

	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/serving"
	"loongserve/internal/token"
	"loongserve/internal/workload"
)

func TestFingerprintsRepeatPerSeed(t *testing.T) {
	for _, name := range []string{"esp-single", "fleet-elastic", "fleet-stream"} {
		fp := func(seed int64) uint64 {
			inst, err := workloads[name](seed, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			defer inst.close()
			return inst.fingerprint()
		}
		a, b, c := fp(7), fp(7), fp(8)
		if a != b {
			t.Errorf("%s: seed 7 fingerprints %016x and %016x differ", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %016x", name, a)
		}
	}
	tok := token.Default()
	a, b := genPrompts(tok, 7), genPrompts(tok, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("http-toy prompt %d differs between two draws of seed 7", i)
		}
		if a[i].tokens+a[i].maxTokens > httpWindow {
			t.Errorf("http-toy prompt %d needs %d+%d tokens, window %d", i, a[i].tokens, a[i].maxTokens, httpWindow)
		}
	}
}

// smallESP is esp-single on a 300-request trace.
func smallESP(t *testing.T) *espSingle {
	c, err := cluster.New(lwm, a800, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.PoissonTrace(workload.Mixed(), espRate, 300, 3)
	return &espSingle{trace: trace, c: c, cm: costmodel.New(c.Model, c.HW)}
}

// TestDigestsRepeatAndTracingIsNeutral runs small versions of the three
// simulator workloads untraced twice and traced once: all three output
// digests must agree.
func TestDigestsRepeatAndTracingIsNeutral(t *testing.T) {
	scripts := func(cfg workload.SessionConfig) workload.SessionConfig {
		cfg.Sessions = 120
		return cfg
	}
	elastic, err := setupFleetElastic(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	elastic.(*fleetElastic).scripts = workload.SessionScripts(scripts(fleetElasticConfig()), 5)
	stream, err := setupFleetStream(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := stream.(*fleetStream)
	fs.cfg = scripts(fleetStreamConfig())
	fs.groups[0].Count, fs.groups[1].Count = 1, 6
	fs.total = streamRequests(fs.cfg, fs.seed)

	for name, inst := range map[string]instance{"esp-single": smallESP(t), "fleet-elastic": elastic, "fleet-stream": stream} {
		a, err := inst.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := inst.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := newTracer()
		c, err := inst.run(tr)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if a.digest != b.digest || a.digest != c.digest {
			t.Errorf("%s: digests %016x, %016x, traced %016x", name, a.digest, b.digest, c.digest)
		}
		if st := tr.stats()["serving.Engine.Arrive"]; st == nil || st.count < a.requests {
			t.Errorf("%s: traced run recorded %v Arrive spans for %d requests", name, st, a.requests)
		}
	}
	one, err := fs.runShards(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := fs.runShards(nil, parallelShards)
	if err != nil {
		t.Fatal(err)
	}
	if one.digest != two.digest {
		t.Errorf("fleet-stream: 1-shard digest %016x, %d-shard %016x", one.digest, parallelShards, two.digest)
	}
}

func TestDecoratorsMirrorOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, e := range []serving.Engine{core.New(2, core.Options{}), baselines.NewVLLM(1)} {
		for _, detached := range []bool{false, true} {
			if got, want := engineInterfaces(tr.engine(e, detached)), engineInterfaces(e); got != want {
				t.Errorf("%T decorator implements %04b, engine %04b", e, got, want)
			}
		}
	}
	for _, p := range []fleet.Policy{fleet.NewCapabilityAffinity(), fleet.NewMigratingAffinity(), fleet.NewLeastLoaded()} {
		_, inner := p.(fleet.MigrationAware)
		_, outer := tr.policy(p).(fleet.MigrationAware)
		if inner != outer {
			t.Errorf("%T: MigrationAware %v, decorator %v", p, inner, outer)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("wrapping ContentAffinity did not panic")
		}
	}()
	tr.policy(fleet.NewContentAffinity())
}
