package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// submitAt schedules a direct stateless submission, the fault tests'
// workhorse: toyEngine arithmetic (1us/input token prefill, 20us/output
// token decode, FIFO) keeps every timeline exact.
func submitAt(sim *simevent.Sim, g *Gateway, id int, e workload.Entry, at time.Duration) {
	r := &serving.Request{
		ID: kvcache.RequestID(id), InputLen: e.InputLen, OutputLen: e.OutputLen,
		Arrival: simevent.Time(at),
	}
	sim.At(simevent.Time(at), func() { g.Submit(r, e) })
}

// TestCrashRecoversInFlightRequests is the headline crash property: a
// replica dying mid-flight loses no request — everything it held re-enters
// routing and completes on the survivors.
func TestCrashRecoversInFlightRequests(t *testing.T) {
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(3), Policy: NewRoundRobin()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	// 30 requests at t=0, round-robin 10 per replica, 300us each FIFO:
	// replica 0 finishes its queue at 3ms. Crash it at 1ms — exactly 3 of
	// its requests have finished, 7 are doomed.
	for i := 1; i <= 30; i++ {
		submitAt(sim, g, i, workload.Entry{InputLen: 100, OutputLen: 10}, 0)
	}
	sim.At(simevent.Time(time.Millisecond), func() {
		if err := g.CrashReplica(0); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	if g.Completed() != 30 {
		t.Fatalf("%d of 30 requests completed after crash", g.Completed())
	}
	if g.replicas[0].state != ReplicaFailed {
		t.Fatalf("crashed replica state %v, want failed", g.replicas[0].state)
	}
	if g.ActiveReplicas() != 2 || g.ProvisionedReplicas() != 2 {
		t.Fatalf("active %d provisioned %d after crash, want 2/2", g.ActiveReplicas(), g.ProvisionedReplicas())
	}
	res := g.Finalize()
	if res.Faults.Crashes != 1 || res.Faults.RecoveredRequests != 7 {
		t.Fatalf("fault stats %+v, want 1 crash, 7 recovered", res.Faults)
	}
	seen := make(map[int64]bool)
	for _, rec := range res.Records {
		if seen[rec.ID] {
			t.Fatalf("request %d finished twice", rec.ID)
		}
		seen[rec.ID] = true
		if rec.FirstToken < rec.Arrival || rec.Finish < rec.FirstToken {
			t.Fatalf("request %d has an inverted timeline: %+v", rec.ID, rec)
		}
	}
	if len(seen) != 30 {
		t.Fatalf("%d distinct records, want 30", len(seen))
	}
	var sawCrash bool
	for _, ev := range res.Events {
		if ev.Kind == "crash" && ev.Replica == 0 {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("no crash scale-event recorded")
	}
}

// TestCrashRefusals: the crash API rejects targets that would corrupt the
// run — unknown indices, non-active replicas, and the last active replica
// (routing must always have a destination).
func TestCrashRefusals(t *testing.T) {
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(2), Policy: NewRoundRobin()}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CrashReplica(-1); err == nil {
		t.Fatal("crash of replica -1 accepted")
	}
	if err := g.CrashReplica(5); err == nil {
		t.Fatal("crash of unknown replica accepted")
	}
	if err := g.CrashReplica(0); err != nil {
		t.Fatalf("first crash refused: %v", err)
	}
	if err := g.CrashReplica(0); err == nil {
		t.Fatal("second crash of the same replica accepted")
	}
	if err := g.CrashReplica(1); err == nil {
		t.Fatal("crash of the last active replica accepted")
	}
	if err := g.StallReplica(0, time.Second); err == nil {
		t.Fatal("stall of a crashed replica accepted")
	}
}

// TestCrashRecoverySalvagesSurvivingKV: recovery re-prefills only the
// suffix no surviving cache covers. A shared system prompt warmed on both
// replicas means the rescued request salvages the prompt's whole blocks —
// visible as the Recover event's token count.
func TestCrashRecoverySalvagesSurvivingKV(t *testing.T) {
	col := &obs.Collector{}
	sim := simevent.New()
	g, err := NewGateway(Config{Groups: toyFleet(2), Policy: NewRoundRobin(), Obs: col}, sim)
	if err != nil {
		t.Fatal(err)
	}
	// Three sessions of one prompt group: 1010 tokens of context make
	// three whole blocks, all inside the 800-token system prompt, so every
	// session's chain is the prompt's.
	prompt := sessionBlocks(5, 800)
	shared := func(session int64) workload.Entry {
		return workload.Entry{InputLen: 1000, OutputLen: 10, SessionID: session, PromptGroup: 5, SharedLen: 800, Blocks: prompt}
	}
	// Warm the prompt on both replicas (round-robin), finishing at 1.2ms.
	submitAt(sim, g, 1, shared(1), 0)
	submitAt(sim, g, 2, shared(2), 0)
	// The victim request lands on replica 0 at 2ms (hit 768, 232us
	// prefill remaining) and dies with it at 2.1ms.
	submitAt(sim, g, 3, shared(3), 2*time.Millisecond)
	sim.At(simevent.Time(2*time.Millisecond+100*time.Microsecond), func() {
		if err := g.CrashReplica(0); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	if g.Completed() != 3 {
		t.Fatalf("%d of 3 completed", g.Completed())
	}
	g.Finalize()
	var recovers []obs.Event
	for _, e := range col.Events {
		if e.Kind == obs.KindRecover {
			recovers = append(recovers, e)
		}
	}
	if len(recovers) != 1 {
		t.Fatalf("%d recover events, want 1", len(recovers))
	}
	if recovers[0].Tokens != 768 {
		t.Fatalf("recovery salvaged %d tokens, want the 768 in the prompt's 3 whole blocks on the survivor", recovers[0].Tokens)
	}
	if recovers[0].A != 0 {
		t.Fatalf("recover names crashed replica %d, want 0", recovers[0].A)
	}
	if vs := analyze.Audit(col.Events); len(vs) != 0 {
		t.Fatalf("crash/recover stream failed audit: %v", vs)
	}
}

// TestHedgeDuplicatesStragglerExactly is the hedging contract on exact toy
// arithmetic: five clean completions calibrate the per-token TTFT baseline
// at 1us/token, a stall then pins the primary, the hedge fires after
// quantile x input = 2ms, and the copy wins on the healthy replica — the
// record carries the primary's ID and the copy's fast timeline, and the
// never-delivered primary burns nothing.
func TestHedgeDuplicatesStragglerExactly(t *testing.T) {
	col := &obs.Collector{}
	sim := simevent.New()
	cfg := Config{
		Groups: toyFleet(2), Policy: NewLeastLoaded(), Obs: col,
		Hedge: HedgeConfig{Quantile: 0.5, MinSamples: 5, MinInput: 1},
	}
	g, err := NewGateway(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	// Calibration: 5 spaced-out requests, each done before the next
	// arrives, all tie-broken onto replica 0. TTFT = 1000us for 1000
	// input tokens -> every baseline sample is exactly 1us/token.
	for i := 1; i <= 5; i++ {
		submitAt(sim, g, i, workload.Entry{InputLen: 1000, OutputLen: 10}, time.Duration(i-1)*2*time.Millisecond)
	}
	// Freeze replica 0 before the straggler arrives.
	sim.At(simevent.Time(19*time.Millisecond), func() {
		if err := g.StallReplica(0, 100*time.Millisecond); err != nil {
			t.Errorf("stall: %v", err)
		}
	})
	// The straggler: 2000 input tokens at t=20ms, routed to the (idle but
	// stalled) replica 0. Hedge delay = q50(1us/token) x 2000 = 2ms, so
	// the copy launches at 22ms on replica 1 and first-tokens at 24ms.
	submitAt(sim, g, 6, workload.Entry{InputLen: 2000, OutputLen: 10}, 20*time.Millisecond)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	if g.Completed() != 6 {
		t.Fatalf("%d of 6 completed", g.Completed())
	}
	res := g.Finalize()
	if res.Hedge.Launched != 1 || res.Hedge.Wins != 1 || res.Hedge.Losses != 0 {
		t.Fatalf("hedge stats %+v, want exactly one launched-and-won", res.Hedge)
	}
	if res.Hedge.WastedTokens != 0 {
		t.Fatalf("wasted %d tokens, want 0 (the stalled primary never reached its engine)", res.Hedge.WastedTokens)
	}
	if res.Faults.Stalls != 1 {
		t.Fatalf("stall stats %+v, want 1 stall", res.Faults)
	}
	var straggler *struct {
		first, finish time.Duration
	}
	for _, rec := range res.Records {
		if rec.ID == 6 {
			straggler = &struct{ first, finish time.Duration }{rec.FirstToken, rec.Finish}
		}
		if rec.ID > 6 {
			t.Fatalf("synthetic hedge ID %d leaked into the records", rec.ID)
		}
	}
	if straggler == nil {
		t.Fatal("straggler's record missing")
	}
	if straggler.first != 24*time.Millisecond {
		t.Fatalf("straggler first token at %v, want 24ms (launch 22ms + 2000us prefill)", straggler.first)
	}
	if straggler.finish != 24*time.Millisecond+200*time.Microsecond {
		t.Fatalf("straggler finish at %v, want 24.2ms", straggler.finish)
	}
	counts := obs.Counts(col.Events)
	if counts[obs.KindHedgeLaunch] != 1 || counts[obs.KindHedgeWin] != 1 || counts[obs.KindHedgeLose] != 0 {
		t.Fatalf("hedge events launch/win/lose = %d/%d/%d, want 1/1/0",
			counts[obs.KindHedgeLaunch], counts[obs.KindHedgeWin], counts[obs.KindHedgeLose])
	}
	if vs := analyze.Audit(col.Events); len(vs) != 0 {
		t.Fatalf("hedged stream failed audit: %v", vs)
	}
}

// TestLifecycleScripts drives two lifecycle scripts through the gateway
// and pins each replica's state as every call returns, the final states
// and the lifecycle event sequence: activation, DrainReplica and
// CrashReplica change the state themselves, and a crash leaves the
// survivors' states alone.
func TestLifecycleScripts(t *testing.T) {
	type step struct {
		at   time.Duration
		do   func(g *Gateway) error
		rep  int
		want ReplicaState // rep's state once do returns
	}
	add := func(warmup time.Duration) func(*Gateway) error {
		return func(g *Gateway) error {
			_, err := g.AddReplica(g.refKind, warmup)
			return err
		}
	}
	drain := func(idx int) func(*Gateway) error {
		return func(g *Gateway) error { return g.DrainReplica(idx) }
	}
	crash := func(idx int) func(*Gateway) error {
		return func(g *Gateway) error { return g.CrashReplica(idx) }
	}
	nop := func(*Gateway) error { return nil }
	cases := []struct {
		name     string
		replicas int
		steps    []step
		final    []ReplicaState
		events   []string
	}{
		{
			name:     "scale-up, drain",
			replicas: 2,
			steps: []step{
				{0, add(10 * time.Millisecond), 2, ReplicaWarming},
				{15 * time.Millisecond, nop, 2, ReplicaActive},
				{21 * time.Millisecond, drain(2), 2, ReplicaRetired},
			},
			final:  []ReplicaState{ReplicaActive, ReplicaActive, ReplicaRetired},
			events: []string{"provision 2", "active 2", "drain 2", "retire 2"},
		},
		{
			name:     "crash repair",
			replicas: 3,
			steps: []step{
				{time.Millisecond, crash(0), 0, ReplicaFailed},
				{time.Millisecond, nop, 1, ReplicaActive},
				{3 * time.Millisecond, add(time.Millisecond), 3, ReplicaWarming},
				{5 * time.Millisecond, drain(3), 3, ReplicaRetired},
			},
			final:  []ReplicaState{ReplicaFailed, ReplicaActive, ReplicaActive, ReplicaRetired},
			events: []string{"crash 0", "provision 3", "active 3", "drain 3", "retire 3"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := simevent.New()
			g, err := NewGateway(Config{Groups: toyFleet(tc.replicas), Policy: NewRoundRobin()}, sim)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.steps {
				sim.At(simevent.Time(s.at), func() {
					if err := s.do(g); err != nil {
						t.Errorf("step at %v: %v", s.at, err)
					}
					if st := g.replicas[s.rep].state; st != s.want {
						t.Errorf("at %v replica %d is %v, want %v", s.at, s.rep, st, s.want)
					}
				})
			}
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			res := g.Finalize()
			for i, want := range tc.final {
				if st := g.replicas[i].state; st != want {
					t.Errorf("replica %d ended %v, want %v", i, st, want)
				}
			}
			var events []string
			for _, ev := range res.Events {
				events = append(events, fmt.Sprintf("%s %d", ev.Kind, ev.Replica))
			}
			if !reflect.DeepEqual(events, tc.events) {
				t.Errorf("lifecycle events %q, want %q", events, tc.events)
			}
		})
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has stopped
// falling, waiting at most about a second: goroutines an earlier test
// started may still be exiting.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestFleetRunStartsNoGoroutines holds DESIGN.md's "no goroutines in the
// simulated path": a fleet run on the inline runner (Shards 0 or 1), with a
// replica scaled up and another drained, has no
// more goroutines mid-run than before its gateway was built.
func TestFleetRunStartsNoGoroutines(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			before := settledGoroutines()
			sim := simevent.New()
			g, err := NewGateway(Config{Groups: toyFleet(3), Policy: NewRoundRobin(), Shards: shards}, sim)
			if err != nil {
				t.Fatal(err)
			}
			// 30 requests of 300us each keep every replica busy for ~3ms.
			for i := 1; i <= 30; i++ {
				submitAt(sim, g, i, workload.Entry{InputLen: 100, OutputLen: 10}, 0)
			}
			sim.At(0, func() {
				if _, err := g.AddReplica(g.refKind, 100*time.Microsecond); err != nil {
					t.Errorf("add: %v", err)
				}
			})
			sim.At(simevent.Time(200*time.Microsecond), func() {
				if err := g.DrainReplica(0); err != nil {
					t.Errorf("drain: %v", err)
				}
			})
			mid := -1
			sim.At(simevent.Time(500*time.Microsecond), func() {
				if g.replicas[3].state != ReplicaActive || g.replicas[0].state != ReplicaDraining {
					t.Errorf("replica states %v/%v mid-run, want active/draining",
						g.replicas[3].state, g.replicas[0].state)
				}
				mid = runtime.NumGoroutine()
			})
			if err := g.Run(); err != nil {
				t.Fatal(err)
			}
			g.Finalize()
			if g.Completed() != 30 {
				t.Fatalf("%d of 30 requests completed", g.Completed())
			}
			if mid != before {
				t.Fatalf("%d goroutines mid-run, %d before NewGateway", mid, before)
			}
		})
	}
}

// chaosConfig builds a fresh 4-replica hedged config with the chaos fault
// schedule (policies carry internal state, so each run needs its own
// instance).
func chaosConfig(col *obs.Collector) Config {
	cfg := Config{
		Groups: toyFleet(4),
		Policy: NewPrefixAffinity(),
		Hedge:  HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1},
		Faults: chaosFaults(),
	}
	if col != nil {
		cfg.Obs = col
	}
	return cfg
}

func chaosFaults() []workload.Fault {
	return []workload.Fault{
		{At: 500 * time.Millisecond, Kind: workload.FaultStall, Slot: 1, Stall: 300 * time.Millisecond},
		{At: time.Second, Kind: workload.FaultCrash, Slot: 0},
		{At: 1800 * time.Millisecond, Kind: workload.FaultStall, Slot: 0, Stall: 200 * time.Millisecond},
		{At: 2500 * time.Millisecond, Kind: workload.FaultCrash, Slot: 1},
	}
}

// TestFaultScheduleDeterminism: the same scripts, config and fault
// schedule replay to byte-identical records and fault/hedge accounting —
// the property the chaos experiment's serial-vs-parallel check rests on.
func TestFaultScheduleDeterminism(t *testing.T) {
	scripts := chatScripts(40, 6, 0.3, 11)
	run := func() *Result {
		res, err := RunSessions(scripts, chaosConfig(nil), true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("identical chaos runs produced different records")
	}
	if a.Faults != b.Faults || a.Hedge != b.Hedge {
		t.Fatalf("identical chaos runs diverged: %+v/%+v vs %+v/%+v", a.Faults, a.Hedge, b.Faults, b.Hedge)
	}
	if a.Faults.Crashes != 2 {
		t.Fatalf("fault stats %+v, want both scheduled crashes fired", a.Faults)
	}

	// The generator itself is deterministic by seed.
	rates := workload.FaultRates{CrashPerMin: 2, StallPerMin: 4}
	f1 := workload.GenFaults(9, rates, time.Minute)
	f2 := workload.GenFaults(9, rates, time.Minute)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("GenFaults not deterministic by seed")
	}
	if len(f1) == 0 {
		t.Fatal("GenFaults produced an empty schedule at nonzero rates")
	}
}

// TestChaosRunAuditsClean is the end-to-end fault story: a session
// workload under crashes and stalls — with hedging
// armed — completes every request and emits a stream the full invariant
// auditor passes, new fault/hedge kinds included.
func TestChaosRunAuditsClean(t *testing.T) {
	scripts := chatScripts(50, 8, 0.2, 7)
	col := &obs.Collector{}
	res, err := RunSessions(scripts, chaosConfig(col), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Crashes == 0 {
		t.Fatalf("chaos run absorbed no crashes: %+v", res.Faults)
	}
	if vs := analyze.Audit(col.Events); len(vs) != 0 {
		t.Fatalf("chaos stream failed audit (%d violations), first: %s", len(vs), vs[0])
	}
}

// TestMalformedFaultsRejected: NewGateway refuses a fault schedule with a
// malformed entry, naming the entry, where the run would otherwise panic
// mid-flight (degrade factor below 1, negative time or slot) or silently
// skip or drop the fault (unknown kind, negative stall or window). Every
// schedule GenFaults draws passes.
func TestMalformedFaultsRejected(t *testing.T) {
	good := workload.Fault{At: time.Second, Kind: workload.FaultCrash, Slot: 1}
	bad := []struct {
		name  string
		fault workload.Fault
	}{
		{"degrade factor below 1", workload.Fault{At: time.Second, Kind: workload.FaultDegrade, Window: time.Second, Factor: 0.5}},
		{"degrade factor unset", workload.Fault{At: time.Second, Kind: workload.FaultDegrade, Window: time.Second}},
		{"negative time", workload.Fault{At: -time.Second, Kind: workload.FaultDrain}},
		{"negative slot", workload.Fault{At: time.Second, Kind: workload.FaultDrain, Slot: -1}},
		{"unknown kind", workload.Fault{At: time.Second, Kind: "meteor"}},
		{"negative stall", workload.Fault{At: time.Second, Kind: workload.FaultStall, Stall: -time.Second}},
		{"negative window", workload.Fault{At: time.Second, Kind: workload.FaultDegrade, Window: -time.Second, Factor: 2}},
	}
	for _, c := range bad {
		_, err := NewGateway(Config{Groups: toyFleet(2), Faults: []workload.Fault{good, c.fault}}, simevent.New())
		if err == nil || !strings.Contains(err.Error(), "Faults[1]") {
			t.Errorf("%s: NewGateway error %v, want one naming Config.Faults[1]", c.name, err)
		}
	}

	rates := workload.FaultRates{CrashPerMin: 3, StallPerMin: 3, DrainPerMin: 3, DegradePerMin: 3}
	for seed := int64(1); seed <= 5; seed++ {
		g, err := NewGateway(Config{Groups: toyFleet(2), Faults: workload.GenFaults(seed, rates, time.Minute)}, simevent.New())
		if err != nil {
			t.Fatalf("seed %d: GenFaults schedule rejected: %v", seed, err)
		}
		g.Finalize()
	}
}
