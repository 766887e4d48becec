package bench

import (
	"fmt"
	"time"

	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/workload"
)

// ChaosSessionScripts builds the closed-loop session workload of the chaos
// experiment: the completion check of closed-loop replay is itself the
// zero-lost-requests proof each table row reports.
func ChaosSessionScripts(sc Scale) []workload.SessionScript {
	cfg := workload.DefaultSessionConfig()
	cfg.SessionRate = sc.ChaosRate
	cfg.Sessions = int(sc.ChaosRate * sc.ChaosDuration)
	if minSessions := sc.MinN / cfg.MinTurns; cfg.Sessions < minSessions {
		cfg.Sessions = minSessions
	}
	return workload.SessionScripts(cfg, sc.Seed)
}

// ChaosFaultRates derives the full fault mix from one crash-rate ladder
// point: stalls (the straggler pathology hedging defends against) come
// three times as often as crashes, control-cache drops as often. Zero is
// the clean baseline row.
func ChaosFaultRates(crashPerMin float64) workload.FaultRates {
	return workload.FaultRates{
		CrashPerMin:     crashPerMin,
		StallPerMin:     3 * crashPerMin,
		CacheDropPerMin: crashPerMin,
		StallMean:       2500 * time.Millisecond,
	}
}

// p99TTFT returns the 99th-percentile client-observed time to first
// token, seconds — the tail the hedging column is judged on.
func p99TTFT(recs []metrics.Record) float64 {
	var d metrics.Dist
	for _, r := range recs {
		d.Add(r.InputLatency().Seconds())
	}
	return d.Quantile(0.99)
}

// FleetChaosExperiment is the fault-tolerance scorecard: the same
// closed-loop session workload replayed across a ladder of failure rates
// (replica crashes, intake stalls, control-metadata drops — one seeded
// schedule per ladder point, shared by both hedge arms), with request
// hedging off and on. Every row re-audits its full event stream through
// the invariant checker, so "lost" and "audit" are measured, not assumed:
// crashes destroy KV and in-flight work, yet no request may be lost, no
// token double-counted, and no event may escape a dead replica. The
// hedging pair of each nonzero-fault row shows the tail trade: hedges burn
// duplicate prefill tokens (the wasted column) to pull p99 TTFT back
// toward the clean baseline.
func FleetChaosExperiment(sc Scale) *Table {
	t := &Table{
		Title: fmt.Sprintf("Fleet: fault tolerance under crash/stall/cache-drop chaos (%d replicas, closed-loop sessions, %.0fs)",
			sc.FleetReplicas, sc.ChaosDuration),
		Header: []string{"crash/min", "hedge", "goodput(req/s)", "TTFT(s)", "p99TTFT(s)", "SLO",
			"crashes", "recovered", "hedged", "wins", "wasted(tok)", "lost", "audit"},
	}
	scripts := ChaosSessionScripts(sc)
	horizon := time.Duration(sc.ChaosDuration * float64(time.Second))
	hedges := []bool{false, true}
	rows := make([][]string, len(sc.ChaosCrashRates)*len(hedges))
	runArms(len(rows), sc.workers(), func(arm int) {
		crashRate := sc.ChaosCrashRates[arm/len(hedges)]
		hedged := hedges[arm%len(hedges)]
		col := &obs.Collector{}
		cfg := fleet.Config{
			Groups: []fleet.ReplicaGroup{{Kind: vllmKind(), Count: sc.FleetReplicas}},
			Policy: fleet.NewPrefixAffinity(),
			// One schedule per ladder point: both hedge arms absorb the
			// identical fault sequence.
			Faults: workload.GenFaults(sc.Seed+int64(arm/len(hedges)), ChaosFaultRates(crashRate), horizon),
			Obs:    col,
		}
		if hedged {
			cfg.Hedge = fleet.HedgeConfig{Quantile: 0.95}
		}
		hcell := "off"
		if hedged {
			hcell = "on"
		}
		res, err := fleet.RunSessions(scripts, cfg, true)
		if err != nil {
			// RunSessions' completion check failed (or the run OOMed):
			// requests were lost — the one verdict this table exists to
			// rule out.
			rows[arm] = []string{fmt.Sprint(crashRate), hcell, "ERR", "-", "-", "-", "-", "-", "-", "-", "-", "LOST", err.Error()}
			return
		}
		audit := "clean"
		if vs := analyze.Audit(col.Events); len(vs) != 0 {
			audit = fmt.Sprintf("%d violations: %s", len(vs), vs[0])
		}
		s := metrics.Summarize(res.Records)
		rows[arm] = []string{fmt.Sprint(crashRate), hcell,
			f3(metrics.Goodput(res.Records)), f3(MeanTTFT(res.Records)), f3(p99TTFT(res.Records)), pct(s.SLOAttainment),
			fmt.Sprint(res.Faults.Crashes), fmt.Sprint(res.Faults.RecoveredRequests),
			fmt.Sprint(res.Hedge.Launched), fmt.Sprint(res.Hedge.Wins), fmt.Sprint(res.Hedge.WastedTokens),
			"0", audit}
	})
	t.Rows = rows
	t.Notes = append(t.Notes,
		"each ladder point injects one seeded schedule of crashes (replica + its KV destroyed mid-decode), stalls (3x rate, intake frozen) and control-cache drops, identical for both hedge arms",
		"lost=0 is the closed-loop completion check: every crashed replica's in-flight requests were recovered onto survivors, re-prefilling only what no surviving cache held",
		"audit=clean replays the run's full event stream through the invariant checker (conservation, no event after crash, exactly one hedge winner)",
		"hedging trades wasted duplicate tokens for tail latency: compare p99TTFT within a nonzero-fault pair")
	return t
}
