package fleet_test

import (
	"fmt"
	"testing"

	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/model"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// fusionKinds returns a 4-GPU ESP kind and a single-GPU continuous-batching
// kind whose engines decode fused (both engines' default) or unfused, as
// asked per kind.
func fusionKinds(loongFused, cheapFused bool) (loong, cheap *fleet.ReplicaKind) {
	m := model.LWM1MText()
	hw := cluster.A800()
	loong = fleet.NewKind("loong", fleet.Spec{
		NewEngine: func() serving.Engine {
			e := core.New(2, core.Options{})
			e.SetDecodeFusion(loongFused)
			return e
		},
		NewCluster: func() (*cluster.Cluster, error) { return cluster.New(m, hw, 1, 4, 2) },
	})
	cheap = fleet.NewKind("cheap", fleet.Spec{
		NewEngine: func() serving.Engine {
			e := baselines.NewVLLM(1)
			e.Unfused = !cheapFused
			return e
		},
		NewCluster: func() (*cluster.Cluster, error) { return cluster.New(m, hw, 1, 1, 1) },
	})
	return loong, cheap
}

// TestDecodeFusionIdentity: a mixed loong + contbatch fleet run as its
// kinds build their engines, fused, is byte-identical to the same fleet
// with both kinds unfused — records, stats, obs stream — and to one with
// only the ESP kind fused, while each kind's fusion fires strictly fewer
// simulator events. Every stream passes the invariant audit (no crashed
// replica's engine event may reach it). Checked inline and on workers,
// open loop and in a closed loop with crashes, stalls, hedging and
// migrating routing.
func TestDecodeFusionIdentity(t *testing.T) {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 20
	cfg.SessionRate = 1
	cfg.ThinkMean = 2
	scripts := workload.SessionScripts(cfg, 41)

	cases := []struct {
		name   string
		mk     func(loong, cheap *fleet.ReplicaKind) fleet.Config
		closed bool
		faults []workload.Fault
	}{
		{"open-loop", func(loong, cheap *fleet.ReplicaKind) fleet.Config {
			return fleet.Config{
				Groups: []fleet.ReplicaGroup{{Kind: loong, Count: 1}, {Kind: cheap, Count: 2}},
				Policy: fleet.NewLeastLoaded(),
			}
		}, false, nil},
		{"closed-loop-faults-hedged-migrating", func(loong, cheap *fleet.ReplicaKind) fleet.Config {
			return fleet.Config{
				Groups: []fleet.ReplicaGroup{{Kind: loong, Count: 2}, {Kind: cheap, Count: 2}},
				Policy: fleet.NewMigratingAffinity(),
				Hedge:  fleet.HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1},
			}
		}, true, fleet.ChaosFaults()},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			label := fmt.Sprintf("%s shards=%d", c.name, shards)
			run := func(loongFused, cheapFused bool) (*fleet.Result, []obs.Event) {
				res, events := fleet.ShardRun(t, scripts, c.mk(fusionKinds(loongFused, cheapFused)), shards, c.closed, c.faults)
				if vs := analyze.Audit(events); len(vs) != 0 {
					t.Fatalf("%s: audit found %d violations, first: %s", label, len(vs), vs[0])
				}
				return res, events
			}
			plain, pev := run(false, false)
			loongOnly, lev := run(true, false)
			fused, fev := run(true, true)
			if !(fused.SimEvents < loongOnly.SimEvents && loongOnly.SimEvents < plain.SimEvents) {
				t.Fatalf("%s: simulator events unfused %d, ESP kind fused %d, both fused %d — each kind's fusion must save events",
					label, plain.SimEvents, loongOnly.SimEvents, fused.SimEvents)
			}
			// SimEvents legitimately differ; compare everything else.
			loongOnly.SimEvents, fused.SimEvents = plain.SimEvents, plain.SimEvents
			fleet.RequireIdentical(t, label+" (ESP kind fused)", plain, loongOnly, pev, lev)
			fleet.RequireIdentical(t, label, plain, fused, pev, fev)
		}
	}
}
