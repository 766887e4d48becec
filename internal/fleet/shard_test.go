package fleet

import (
	"fmt"
	"reflect"
	"strings"
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

// shardRun executes one session run at the given shard count with an obs
// collector attached, returning the result and the captured stream.
func shardRun(t *testing.T, scripts []workload.SessionScript, cfg Config, shards int, closed bool, faults []workload.Fault) (*Result, []obs.Event) {
	t.Helper()
	col := &obs.Collector{}
	cfg.Obs = col
	cfg.Shards = shards
	cfg.Faults = faults
	res, err := RunSessions(scripts, cfg, closed)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return res, col.Events
}

// requireIdentical asserts two runs are observationally byte-identical:
// records, per-replica stats, lifecycle events, fault/hedge accounting,
// simulator event counts, makespan, and the full obs stream.
func requireIdentical(t *testing.T, label string, a, b *Result, aev, bev []obs.Event) {
	t.Helper()
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatalf("%s: records differ", label)
	}
	if !reflect.DeepEqual(a.Replicas, b.Replicas) {
		t.Fatalf("%s: replica stats differ", label)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("%s: lifecycle events differ", label)
	}
	if a.Faults != b.Faults || a.Hedge != b.Hedge {
		t.Fatalf("%s: fault/hedge accounting differs: %+v/%+v vs %+v/%+v",
			label, a.Faults, a.Hedge, b.Faults, b.Hedge)
	}
	if a.SimEvents != b.SimEvents {
		t.Fatalf("%s: simulator event counts differ: %d vs %d", label, a.SimEvents, b.SimEvents)
	}
	if a.End != b.End {
		t.Fatalf("%s: makespans differ: %v vs %v", label, a.End, b.End)
	}
	if !reflect.DeepEqual(aev, bev) {
		if len(aev) != len(bev) {
			t.Fatalf("%s: obs stream lengths differ: %d vs %d", label, len(aev), len(bev))
		}
		for i := range aev {
			if !reflect.DeepEqual(aev[i], bev[i]) {
				t.Fatalf("%s: obs stream diverges at event %d:\n  %+v\n  %+v", label, i, aev[i], bev[i])
			}
		}
	}
}

// TestShardedMatchesSerial is the tentpole determinism property: for every
// shard count, a sharded run is byte-identical to the serial reference
// (Shards=1 — the same window algorithm with no parallelism), across
// routing policies, cache modes, the cold tier, a fault schedule with
// hedging armed, and closed-loop feeds (whose windows the think-time
// lookahead bounds, down to one engine instant when think times are zero).
// Worker partitioning must be invisible.
func TestShardedMatchesSerial(t *testing.T) {
	scripts := chatScripts(60, 4, 0.3, 17)
	cases := []struct {
		name    string
		mk      func() Config
		scripts []workload.SessionScript
		closed  bool
		faults  []workload.Fault
	}{
		{"least-loaded", func() Config {
			return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}}, Policy: NewLeastLoaded()}
		}, scripts, false, nil},
		{"prefix-affinity-radix", func() Config {
			return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}}, Policy: NewPrefixAffinity(), Cache: CacheRadix}
		}, scripts, false, nil},
		{"cold-tier", func() Config {
			return Config{
				Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}},
				Policy: NewPrefixAffinity(), Cache: CacheRadix,
				CacheTokens: 40_000, ColdTierTokens: 2_000_000,
			}
		}, scripts, false, nil},
		{"faults-hedged", func() Config {
			return Config{
				Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}},
				Policy: NewPrefixAffinity(),
				Hedge:  HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1},
			}
		}, scripts, false, chaosFaults()},
		{"closed-loop", func() Config {
			return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}}, Policy: NewPrefixAffinity(), Cache: CacheRadix}
		}, scripts, true, nil},
		{"closed-loop-zero-think", func() Config {
			return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}}, Policy: NewLeastLoaded()}
		}, chatScripts(60, 4, 0, 17), true, nil},
		{"closed-loop-faults-hedged", func() Config {
			return Config{
				Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}},
				Policy: NewPrefixAffinity(),
				Hedge:  HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1},
			}
		}, scripts, true, chaosFaults()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial, sev := shardRun(t, c.scripts, c.mk(), 1, c.closed, c.faults)
			if vs := analyze.Audit(sev); len(vs) != 0 {
				t.Fatalf("serial stream failed audit (%d violations), first: %s", len(vs), vs[0])
			}
			// 7 > replica count exercises the worker clamp.
			for _, n := range []int{2, 4, 7} {
				sharded, shev := shardRun(t, c.scripts, c.mk(), n, c.closed, c.faults)
				requireIdentical(t, c.name, serial, sharded, sev, shev)
			}
		})
	}
}

// loongKind builds a replica kind of real ESP engines, the only engines
// that fuse. With fuse false its NewEngine calls SetDecodeFusion(false),
// the unfused reference the fusion identity tests compare against.
func loongKind(fuse bool) *ReplicaKind {
	m := model.LWM1MText()
	hw := cluster.A800()
	return NewKind("loong", Spec{
		NewEngine: func() serving.Engine {
			e := core.New(2, core.Options{})
			if !fuse {
				e.SetDecodeFusion(false)
			}
			return e
		},
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 4, 2)
		},
	})
}

// TestDecodeFusionIdentity: a fleet run as its kind builds its engines,
// fused, is byte-identical to the same fleet built unfused — records,
// stats, obs stream — while the simulator fires strictly fewer events, and
// both streams pass the invariant audit (no crashed core replica's engine
// event may reach the stream). Checked inline and on workers, open loop
// and in a closed loop with crashes, stalls, hedging and migrating
// routing.
func TestDecodeFusionIdentity(t *testing.T) {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 20
	cfg.SessionRate = 1
	cfg.ThinkMean = 2
	scripts := workload.SessionScripts(cfg, 41)

	cases := []struct {
		name   string
		mk     func(kind *ReplicaKind) Config
		closed bool
		faults []workload.Fault
	}{
		{"open-loop", func(kind *ReplicaKind) Config {
			return Config{Groups: []ReplicaGroup{{Kind: kind, Count: 2}}, Policy: NewLeastLoaded()}
		}, false, nil},
		{"closed-loop-faults-hedged-migrating", func(kind *ReplicaKind) Config {
			return Config{
				Groups: []ReplicaGroup{{Kind: kind, Count: 4}},
				Policy: NewMigratingAffinity(),
				Hedge:  HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1},
			}
		}, true, chaosFaults()},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			label := fmt.Sprintf("%s shards=%d", c.name, shards)
			plain, pev := shardRun(t, scripts, c.mk(loongKind(false)), shards, c.closed, c.faults)
			fused, fev := shardRun(t, scripts, c.mk(loongKind(true)), shards, c.closed, c.faults)
			for _, events := range [][]obs.Event{pev, fev} {
				if vs := analyze.Audit(events); len(vs) != 0 {
					t.Fatalf("%s: audit found %d violations, first: %s", label, len(vs), vs[0])
				}
			}
			if fused.SimEvents >= plain.SimEvents {
				t.Fatalf("%s: fusion fired %d events, plain %d — no event reduction",
					label, fused.SimEvents, plain.SimEvents)
			}
			// SimEvents legitimately differ; compare everything else.
			fused.SimEvents = plain.SimEvents
			requireIdentical(t, label, plain, fused, pev, fev)
		}
	}
}

// TestShardedRejectsProvisioning: a negative worker count is a
// configuration error.
func TestShardedRejectsProvisioning(t *testing.T) {
	groups := []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 2}}
	if _, err := NewGateway(Config{Groups: groups, Shards: -1}, simevent.New()); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestArrivalGuardCatchesEngineAhead: a gateway event that hands a request
// to an engine whose clock has run past the gateway's would run the arrival
// in the engine's past — a window bug — so delivery panics instead.
func TestArrivalGuardCatchesEngineAhead(t *testing.T) {
	g, err := NewGateway(Config{Groups: toyFleet(2)}, simevent.New())
	if err != nil {
		t.Fatal(err)
	}
	e := workload.Entry{InputLen: 100, OutputLen: 10}
	deliver := func(id int, rep *replica) {
		r := &serving.Request{ID: kvcache.RequestID(id), InputLen: e.InputLen, OutputLen: e.OutputLen}
		g.deliver(rep, r, e, RequestInfo{ID: r.ID, InputLen: r.InputLen})
	}
	deliver(1, g.replicas[1]) // in sync: accepted
	g.replicas[0].env.Sim.AdvanceTo(simevent.Time(time.Second))
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "behind its engine clock") {
			t.Fatalf("delivery to an engine ahead of the gateway: recovered %v, want the arrival-guard panic", p)
		}
	}()
	deliver(2, g.replicas[0])
}

// TestStreamFeedMatchesEagerFeed: the lazy stream feed replays the same
// workload to the same records and trace as the eager all-at-once feed,
// inline and on workers — lazy sampling changes memory shape, not behavior.
func TestStreamFeedMatchesEagerFeed(t *testing.T) {
	wcfg := workload.DefaultSessionConfig()
	wcfg.Sessions = 50
	wcfg.SessionRate = 3
	wcfg.ThinkMean = 0.5
	scripts := workload.SessionScripts(wcfg, 13)
	mk := func() Config {
		return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 3}}, Policy: NewPrefixAffinity(), Cache: CacheRadix}
	}
	eager, err := RunSessions(scripts, mk(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		cfg := mk()
		cfg.Shards = shards
		lazy, err := RunSessionStream(workload.StreamSessions(wcfg, 13), cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(eager.Records, lazy.Records) {
			t.Fatalf("shards=%d: stream feed records differ from eager feed", shards)
		}
		if !reflect.DeepEqual(eager.Trace, lazy.Trace) {
			t.Fatalf("shards=%d: stream feed trace differs from eager feed", shards)
		}
	}
}
