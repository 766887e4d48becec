package baselines

import (
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

func TestRouterTwoNodeSplitFuse(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 2, 8, 8) // two TP=8 instances, one per node
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) serving.Engine {
		e := NewSplitFuse(8, 1024)
		e.InstanceIndex = i
		return e
	}
	router := NewRouter("sf-x2", []serving.Engine{mk(0), mk(1)})
	trace := workload.PoissonTrace(workload.ShareGPT(), 4, 40, 3)
	recs, err := serving.Run(router, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Fatalf("completed %d of 40", len(recs))
	}
}

func TestRouterWithFleetPolicy(t *testing.T) {
	// The router accepts any fleet policy; a round-robin run must still
	// complete every request on the shared pool.
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) serving.Engine {
		e := NewSplitFuse(8, 1024)
		e.InstanceIndex = i
		return e
	}
	router := NewRouter("sf-rr", []serving.Engine{mk(0), mk(1)})
	router.Policy = fleet.NewRoundRobin()
	trace := workload.PoissonTrace(workload.ShareGPT(), 4, 40, 3)
	recs, err := serving.Run(router, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Fatalf("completed %d of 40", len(recs))
	}
}

func TestRouterRejectsEmpty(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, _ := cluster.New(m, hw, 1, 8, 8)
	r := NewRouter("empty", nil)
	if err := r.Init(&serving.Env{Cluster: c, Pool: c.NewPool()}); err == nil {
		t.Fatal("empty router accepted")
	}
}
