package bench

import (
	"fmt"

	"loongserve/internal/fleet"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
)

// FleetAttributionExperiment decomposes the fleet policy comparison's
// latency by critical-path phase: the same spec and session trace as
// FleetExperiment's highest-rate arms, re-run with the observability
// stream attached and fed through obs/analyze. Per policy it reports the
// mean seconds each phase contributes, the phase shares that matter for
// routing (queueing vs migration stalls vs prefill), the p99 end-to-end
// latency, and the stream auditor's verdict — so a policy that wins
// goodput by gambling on migration stalls is visible as such. It is a
// separate table (not extra FleetExperiment columns) so the long-standing
// golden output of the policy comparison stays byte-identical.
func FleetAttributionExperiment(sc Scale) *Table {
	rate := sc.FleetRates[len(sc.FleetRates)-1]
	t := &Table{
		Title: fmt.Sprintf("Fleet: critical-path attribution (%d replicas, %.3g sess/s, radix cache)",
			sc.FleetReplicas, rate),
		Header: []string{"policy", "queue(ms)", "reenq(ms)", "migr(ms)", "pwait(ms)",
			"prefill(s)", "decode(s)", "decode-share", "p99-e2e(s)", "audit"},
		Notes: []string{
			"phases partition each request's latency exactly: queue (enqueue->route),",
			"re-enqueue (abandoned transfers), migration (routed KV moves), prefill-wait",
			"(engine queueing), prefill (to first token), decode (to last token).",
			"audit is the stream invariant verdict (lifecycle order + conservation).",
		},
	}
	trace := FleetSessionTrace(rate, sc)
	numPolicies := len(fleet.AllPolicies(sc.Seed))
	rows := make([][]string, numPolicies)
	runArms(numPolicies, sc.workers(), func(arm int) {
		policy := fleet.AllPolicies(sc.Seed)[arm]
		col := &obs.Collector{}
		if _, err := fleet.Run(trace, fleet.Config{
			Groups: []fleet.ReplicaGroup{{Kind: vllmKind(), Count: sc.FleetReplicas}},
			Policy: policy,
			Obs:    col,
		}); err != nil {
			rows[arm] = []string{policy.Name(), "ERR", "-", "-", "-", "-", "-", "-", "-", "-"}
			return
		}
		rep := analyze.Attribute(col.Events)
		verdict := "pass"
		if vs := analyze.Audit(col.Events); len(vs) > 0 {
			verdict = fmt.Sprintf("FAIL(%d)", len(vs))
		}
		ms := func(p analyze.Phase) string {
			return fmt.Sprintf("%.1f", rep.PhaseDist[p].Mean()*1e3)
		}
		rows[arm] = []string{
			policy.Name(),
			ms(analyze.PhaseQueue),
			ms(analyze.PhaseReenqueue),
			ms(analyze.PhaseMigration),
			ms(analyze.PhasePrefillWait),
			f3(rep.PhaseDist[analyze.PhasePrefill].Mean()),
			f3(rep.PhaseDist[analyze.PhaseDecode].Mean()),
			pct(rep.PhaseShare(analyze.PhaseDecode)),
			f3(rep.E2EDist.Quantile(0.99)),
			verdict,
		}
	})
	t.Rows = rows
	return t
}
