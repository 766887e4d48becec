package autoscale_test

import (
	"reflect"
	"testing"
	"time"

	"loongserve/internal/autoscale"
	"loongserve/internal/cluster"
	"loongserve/internal/fleet"
	"loongserve/internal/model"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// slowEngine is a deterministic FIFO engine whose service times are slow
// enough for queue pressure to build at chat-session rates: prefill costs
// 25us per input token, decode 100us per output token. One replica
// saturates around a dozen requests per second, so bursts force scaling.
type slowEngine struct {
	env       *serving.Env
	busyUntil simevent.Time
	inflight  int
}

func (e *slowEngine) Name() string { return "slow" }

func (e *slowEngine) Init(env *serving.Env) error {
	e.env = env
	return nil
}

func (e *slowEngine) Arrive(r *serving.Request) {
	e.inflight++
	start := e.env.Sim.Now()
	if e.busyUntil > start {
		start = e.busyUntil
	}
	first := simevent.Time(start).Add(time.Duration(r.InputLen) * 25 * time.Microsecond)
	finish := first.Add(time.Duration(r.OutputLen) * 100 * time.Microsecond)
	e.busyUntil = finish
	e.env.Sim.At(finish, func() {
		r.Phase = serving.Finished
		r.Generated = r.OutputLen
		r.FirstToken = first
		r.Finish = finish
		e.inflight--
		e.env.Complete(r)
	})
}

func (e *slowEngine) Load() serving.LoadStats {
	// FIFO: one request in service, the rest waiting for admission.
	if e.inflight == 0 {
		return serving.LoadStats{}
	}
	return serving.LoadStats{Queued: e.inflight - 1, Running: 1}
}

// slowKind is a fresh kind of 8-GPU slow-engine replicas: the candidate
// of a homogeneous elastic fleet.
func slowKind() *fleet.ReplicaKind {
	m := model.LWM1MText()
	hw := cluster.A800()
	return fleet.NewKind("slow", fleet.Spec{
		NewEngine: func() serving.Engine { return &slowEngine{} },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 8, 8)
		},
	})
}

// burstyScripts builds a closed-loop-ready bursty session workload: 20s of
// heavy arrivals alternating with 20s of trickle.
func burstyScripts(t *testing.T, sessions int, seed int64) []workload.SessionScript {
	t.Helper()
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = sessions
	cfg.SessionRate = 6
	cfg.BurstFactor = 5
	cfg.BurstPeriod = 40
	cfg.ThinkMean = 2
	cfg.ClosedLoop = true
	return workload.SessionScripts(cfg, seed)
}

func testConfig() autoscale.Config {
	return autoscale.Config{
		Min:      1,
		Max:      6,
		Interval: time.Second,
		UpAt:     6,
		DownAt:   4,
		Warmup:   5 * time.Second,
		Cooldown: 3 * time.Second,
	}
}

// slowConfig is testConfig over a homogeneous fleet of slow replicas.
func slowConfig() autoscale.Config {
	cfg := testConfig()
	cfg.Kinds = []*fleet.ReplicaKind{slowKind()}
	return cfg
}

// TestScalesUpAndDownOverBurst is the controller's core behavior: a bursty
// closed-loop workload forces scale-up during the burst and drain during
// the lull, every request completes, and the bounds hold throughout.
func TestScalesUpAndDownOverBurst(t *testing.T) {
	scripts := burstyScripts(t, 200, 21)
	res, err := autoscale.RunKinds(scripts, fleet.Config{Policy: fleet.NewMigratingAffinity()}, slowConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != workload.NumRequests(scripts) {
		t.Fatalf("%d of %d requests completed", len(res.Records), workload.NumRequests(scripts))
	}
	if res.ScaleUps == 0 {
		t.Error("controller never scaled up under a saturating burst")
	}
	if res.ScaleDowns == 0 {
		t.Error("controller never scaled down during the lull")
	}
	if res.PeakReplicas <= 1 {
		t.Errorf("peak replicas %d, want > 1", res.PeakReplicas)
	}
	if res.PeakReplicas > 6 {
		t.Errorf("peak replicas %d exceeds Max 6", res.PeakReplicas)
	}
	if res.Ticks == 0 {
		t.Error("controller never ticked")
	}
	// The drain path must actually migrate session KV, not drop it.
	if res.ScaleDowns > 0 && res.Migrations.Count == 0 {
		t.Error("scale-down drained without migrating any session KV")
	}
	// Mean provisioned replicas must sit strictly between Min and Peak:
	// elasticity, not a static fleet in disguise.
	mean := res.MeanReplicas()
	if mean <= 1.0 || mean >= float64(res.PeakReplicas) {
		t.Errorf("mean replicas %.2f not in (1, %d)", mean, res.PeakReplicas)
	}
	// Event stream shows the full lifecycle.
	kinds := map[string]int{}
	for _, ev := range res.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []string{"provision", "active", "drain", "retire", "migrate"} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in an elastic run (events: %v)", k, kinds)
		}
	}
}

// TestAutoscaleDeterminism: identical inputs produce identical records,
// events and scaling decisions.
func TestAutoscaleDeterminism(t *testing.T) {
	scripts := burstyScripts(t, 80, 5)
	run := func() *autoscale.Result {
		res, err := autoscale.RunKinds(scripts, fleet.Config{Policy: fleet.NewPrefixAffinity()}, slowConfig(), true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ScaleUps != b.ScaleUps || a.ScaleDowns != b.ScaleDowns || a.PeakReplicas != b.PeakReplicas {
		t.Fatalf("scaling diverged: %d/%d/%d vs %d/%d/%d",
			a.ScaleUps, a.ScaleDowns, a.PeakReplicas, b.ScaleUps, b.ScaleDowns, b.PeakReplicas)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestStaysAtMinWhenUnderloaded: a light workload never triggers scaling.
func TestStaysAtMinWhenUnderloaded(t *testing.T) {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 20
	cfg.SessionRate = 0.5
	cfg.ClosedLoop = true
	scripts := workload.SessionScripts(cfg, 3)
	res, err := autoscale.RunKinds(scripts, fleet.Config{}, slowConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps != 0 || res.ScaleDowns != 0 {
		t.Errorf("light load scaled: %d ups, %d downs", res.ScaleUps, res.ScaleDowns)
	}
	if res.PeakReplicas != 1 {
		t.Errorf("peak replicas %d, want 1", res.PeakReplicas)
	}
	if got := res.MeanReplicas(); got < 0.999 || got > 1.001 {
		t.Errorf("mean replicas %.3f, want 1", got)
	}
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	bad := []autoscale.Config{
		{Min: 0, Max: 4, Interval: time.Second, UpAt: 8, DownAt: 2},
		{Min: 4, Max: 2, Interval: time.Second, UpAt: 8, DownAt: 2},
		{Min: 1, Max: 4, Interval: 0, UpAt: 8, DownAt: 2},
		{Min: 1, Max: 4, Interval: time.Second, UpAt: 2, DownAt: 8},
		{Min: 1, Max: 4, Interval: time.Second, UpAt: 8, DownAt: 2, Warmup: -time.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := autoscale.DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if _, err := autoscale.RunKinds(nil, fleet.Config{}, autoscale.Config{}, true); err == nil {
		t.Error("zero config accepted by RunKinds")
	}
}

// kindSpec builds a slow-engine kind on a cluster of the given GPU count:
// capability (KV envelope, cost units) derives from the cluster shape, so
// a 4-GPU kind is long-context-capable relative to the 1-GPU kind.
func kindSpec(gpus int) fleet.Spec {
	m := model.LWM1MText()
	hw := cluster.A800()
	return fleet.Spec{
		NewEngine: func() serving.Engine { return &slowEngine{} },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, gpus, gpus)
		},
	}
}

// mixedScripts is burstyScripts with a long-document share whose biggest
// documents exceed the small kind's comfortable envelope.
func mixedScripts(t *testing.T, sessions int, seed int64) []workload.SessionScript {
	t.Helper()
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = sessions
	cfg.SessionRate = 6
	cfg.BurstFactor = 5
	cfg.BurstPeriod = 40
	cfg.ThinkMean = 2
	cfg.ClosedLoop = true
	cfg.LongFrac = 0.2
	cfg.LongDocTokens = 60_000
	cfg.LongDocMax = 90_000
	return workload.SessionScripts(cfg, seed)
}

// runKinds drives one kind-picking autoscale run with a small/big kind
// pair (small is the base) and returns it with the kinds.
func runKinds(t *testing.T, sessions int, seed int64) (*autoscale.Result, *fleet.ReplicaKind, *fleet.ReplicaKind) {
	t.Helper()
	small := fleet.NewKind("small", kindSpec(1))
	big := fleet.NewKind("big", kindSpec(4))
	acfg := testConfig()
	acfg.Kinds = []*fleet.ReplicaKind{small, big}
	res, err := autoscale.RunKinds(mixedScripts(t, sessions, seed),
		fleet.Config{Policy: fleet.NewCapabilityAffinity(), SLOKind: big, SLOScale: 5}, acfg, true)
	if err != nil {
		t.Fatal(err)
	}
	return res, small, big
}

// TestRunKindsPicksBothKinds: under a bursty chat+long-document mix with a
// small base kind, the controller must scale up with cheap replicas for
// chat pressure and add the long-context kind when the queue holds
// documents past the fleet's envelope (capability holes).
func TestRunKindsPicksBothKinds(t *testing.T) {
	res, small, big := runKinds(t, 60, 11)
	if res.ScaleUps == 0 {
		t.Fatal("no scale-ups under a bursty workload")
	}
	total := 0
	for kind, n := range res.ScaleUpsByKind {
		if kind != small.Name && kind != big.Name {
			t.Fatalf("scale-up of unknown kind %q", kind)
		}
		total += n
	}
	if total != res.ScaleUps {
		t.Fatalf("ScaleUpsByKind sums to %d, ScaleUps %d", total, res.ScaleUps)
	}
	if res.ScaleUpsByKind[big.Name] == 0 {
		t.Fatalf("long-context kind never picked despite over-envelope documents: %v", res.ScaleUpsByKind)
	}
	if res.ScaleUpsByKind[small.Name] == 0 {
		t.Fatalf("cheap kind never picked despite chat bursts: %v", res.ScaleUpsByKind)
	}
	// Kind identity must flow into the scale events.
	kindsSeen := map[string]bool{}
	for _, ev := range res.Events {
		if ev.Kind == "provision" {
			kindsSeen[ev.ReplicaKind] = true
		}
	}
	if !kindsSeen[small.Name] || !kindsSeen[big.Name] {
		t.Fatalf("provision events name kinds %v, want both", kindsSeen)
	}
}

// TestRunKindsDeterminism: the kind-picking controller — including its
// drain decisions — is bit-reproducible per seed.
func TestRunKindsDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		a, _, _ := runKinds(t, 48, seed)
		b, _, _ := runKinds(t, 48, seed)
		if len(a.Records) != len(b.Records) {
			t.Fatalf("seed %d: record counts differ", seed)
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("seed %d: record %d differs", seed, i)
			}
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("seed %d: event counts differ: %d vs %d", seed, len(a.Events), len(b.Events))
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("seed %d: event %d differs:\n%+v\n%+v", seed, i, a.Events[i], b.Events[i])
			}
		}
		if a.ScaleUps != b.ScaleUps || a.ScaleDowns != b.ScaleDowns || a.PeakReplicas != b.PeakReplicas {
			t.Fatalf("seed %d: controller accounting differs", seed)
		}
		for kind, n := range a.ScaleUpsByKind {
			if b.ScaleUpsByKind[kind] != n {
				t.Fatalf("seed %d: ScaleUpsByKind differ: %v vs %v", seed, a.ScaleUpsByKind, b.ScaleUpsByKind)
			}
		}
		if a.CostUnitSeconds != b.CostUnitSeconds {
			t.Fatalf("seed %d: cost-unit seconds differ", seed)
		}
	}
}

// TestRunKindsShardInvariance: a kind-picking autoscaled closed-loop run,
// with drains migrating sessions off retiring replicas, is byte-identical
// at every worker count — including more workers than the peak replica
// count — and its event stream audits clean.
func TestRunKindsShardInvariance(t *testing.T) {
	scripts := mixedScripts(t, 60, 11)
	run := func(shards int) (*autoscale.Result, []obs.Event) {
		small := fleet.NewKind("small", kindSpec(1))
		big := fleet.NewKind("big", kindSpec(4))
		acfg := testConfig()
		acfg.Kinds = []*fleet.ReplicaKind{small, big}
		col := &obs.Collector{}
		fcfg := fleet.Config{Policy: fleet.NewCapabilityAffinity(), Cache: fleet.CacheRadix,
			SLOKind: big, SLOScale: 5, Shards: shards, Obs: col}
		res, err := autoscale.RunKinds(scripts, fcfg, acfg, true)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res, col.Events
	}
	ref, refEv := run(1)
	if ref.ScaleUps == 0 || ref.ScaleDowns == 0 || ref.Migrations.Count == 0 {
		t.Fatalf("run did not scale both ways with migrations (ups %d, downs %d, migrations %d)",
			ref.ScaleUps, ref.ScaleDowns, ref.Migrations.Count)
	}
	if vs := analyze.Audit(refEv); len(vs) != 0 {
		t.Fatalf("stream failed audit (%d violations), first: %s", len(vs), vs[0])
	}
	for _, n := range []int{2, ref.PeakReplicas + 3} {
		res, ev := run(n)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("shards=%d: result differs from the 1-shard run", n)
		}
		if len(ev) != len(refEv) {
			t.Fatalf("shards=%d: %d obs events, 1-shard run %d", n, len(ev), len(refEv))
		}
		for i := range ev {
			if ev[i] != refEv[i] {
				t.Fatalf("shards=%d: obs stream diverges at event %d:\n  %+v\n  %+v", n, i, refEv[i], ev[i])
			}
		}
	}
}

// TestRunKindsValidation covers the kind-picking entry point's errors.
func TestRunKindsValidation(t *testing.T) {
	scripts := burstyScripts(t, 4, 1)
	if _, err := autoscale.RunKinds(scripts, fleet.Config{}, testConfig(), true); err == nil {
		t.Error("empty Kinds accepted")
	}
	acfg := testConfig()
	acfg.Kinds = []*fleet.ReplicaKind{fleet.NewKind("a", kindSpec(1)), fleet.NewKind("a", kindSpec(4))}
	if _, err := autoscale.RunKinds(scripts, fleet.Config{}, acfg, true); err == nil {
		t.Error("duplicate kind names accepted")
	}
	acfg = testConfig()
	acfg.Kinds = []*fleet.ReplicaKind{fleet.NewKind("a", kindSpec(1))}
	if _, err := autoscale.RunKinds(scripts, fleet.Config{Groups: []fleet.ReplicaGroup{{Kind: acfg.Kinds[0], Count: 2}}}, acfg, true); err == nil {
		t.Error("fcfg.Groups accepted alongside kinds")
	}
	acfg.Kinds = []*fleet.ReplicaKind{nil}
	if _, err := autoscale.RunKinds(scripts, fleet.Config{}, acfg, true); err == nil {
		t.Error("nil kind accepted")
	}
}
