// Package autoscale closes the elasticity loop at fleet scale: a control
// loop observes per-replica load through the gateway (ultimately
// serving.LoadReporter aggregated per replica), grows the fleet when queue
// pressure exceeds a target, and shrinks it when replicas idle — paying a
// warm-up delay for every new replica and, on scale-in, draining the
// victim by migrating each live session's KV to a survivor over the
// inter-node link (cluster.MigrationTime) instead of dropping or
// recomputing it.
//
// This is the paper's elastic-parallelism argument lifted one level up:
// within a replica, LoongServe scales sequence parallelism to the demand
// of each iteration; across replicas, the autoscaler scales the replica
// count to the demand of the arrival process. Both hinge on the same
// observation — KV movement over fast links is far cheaper than
// recomputation — and the same cost model prices both. The figure of
// merit is cost-normalized goodput: SLO-met requests per second per
// provisioned replica, which a static fleet can only optimize for one
// arrival rate while the controller tracks bursts (bench.AutoscaleExperiment).
package autoscale

import (
	"fmt"
	"time"

	"loongserve/internal/fleet"
	"loongserve/internal/obs"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// Config parameterizes the control loop. Thresholds are in outstanding
// requests per active replica (engine-reported through
// serving.LoadReporter where available). Scale-up triggers when the
// per-replica load exceeds UpAt. Scale-down is a *consolidation* test:
// drain one replica when the survivors would carry the fleet's entire
// outstanding load at under DownAt per replica — so shrinking never
// immediately re-creates the pressure that would grow the fleet again,
// and DownAt < UpAt is the flap-damping hysteresis band.
type Config struct {
	Min, Max int           // replica-count bounds (Min >= 1, Max >= Min)
	Interval time.Duration // control period between observations
	UpAt     float64       // scale up when outstanding reqs per active replica exceed this
	DownAt   float64       // scale down when survivors would stay below this per replica
	Warmup   time.Duration // provisioning-to-routable delay for new replicas
	Cooldown time.Duration // minimum time between scaling actions

	// Kinds are the candidate replica kinds a scale-up may provision;
	// RunKinds needs at least one. The fleet starts as Min replicas of
	// Kinds[0], which should therefore be a kind that can serve every
	// request, and a homogeneous fleet is the one-kind case. With several
	// candidates, each scale-up picks the kind with the best marginal
	// goodput per cost unit against the current queue's length mix: for
	// each candidate, the requests it could comfortably serve divided by
	// the cost-model-predicted prefill seconds they would take on it, per
	// provisioning cost unit. A long-heavy queue disqualifies small kinds
	// (their servable share collapses); a short-heavy queue favors them
	// (near-equal speed at a fraction of the cost). Scale-down prefers
	// draining the kind the current mix least needs.
	Kinds []*fleet.ReplicaKind
}

// DefaultConfig returns a responsive controller: observe every second,
// grow above 30 outstanding requests per replica (continuous-batching
// engines *run* a few dozen requests when healthy, so pressure means
// "well past the comfortable batch"), consolidate when survivors would
// stay under 20, 10s warm-up (model load at datacenter NVMe rates), 4s
// cooldown. Scale-up reaction time bounds the SLO damage of a burst's
// leading edge — every second of hesitation plus the whole warm-up is
// served by the old fleet — so the loop watches every second and
// triggers on the climb.
func DefaultConfig() Config {
	return Config{
		Min:      1,
		Max:      8,
		Interval: time.Second,
		UpAt:     30,
		DownAt:   20,
		Warmup:   10 * time.Second,
		Cooldown: 4 * time.Second,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Min < 1:
		return fmt.Errorf("autoscale: Min must be >= 1, got %d", c.Min)
	case c.Max < c.Min:
		return fmt.Errorf("autoscale: Max %d below Min %d", c.Max, c.Min)
	case c.Interval <= 0:
		return fmt.Errorf("autoscale: non-positive Interval %v", c.Interval)
	case c.UpAt <= c.DownAt:
		return fmt.Errorf("autoscale: UpAt %v must exceed DownAt %v", c.UpAt, c.DownAt)
	case c.Warmup < 0 || c.Cooldown < 0:
		return fmt.Errorf("autoscale: negative Warmup/Cooldown")
	}
	seen := make(map[string]bool, len(c.Kinds))
	for i, k := range c.Kinds {
		if k == nil {
			return fmt.Errorf("autoscale: Kinds[%d] is nil", i)
		}
		if seen[k.Name] {
			return fmt.Errorf("autoscale: duplicate kind %q", k.Name)
		}
		seen[k.Name] = true
	}
	return nil
}

// Result is a RunKinds outcome: the fleet result plus controller
// accounting.
type Result struct {
	*fleet.Result
	ScaleUps   int
	ScaleDowns int
	// ScaleUpsByKind breaks ScaleUps down per replica kind (nil when the
	// controller never scaled up).
	ScaleUpsByKind map[string]int
	// PeakReplicas is the maximum simultaneously provisioned replica count.
	PeakReplicas int
	Ticks        int
}

// controller is the periodic decision loop.
type controller struct {
	g    *fleet.Gateway
	sim  *simevent.Sim
	cfg  Config
	feed *fleet.SessionFeed
	res  *Result

	lastAction simevent.Time
	acted      bool
}

// holeBoost weighs a capability hole — a queued request no provisioned
// replica can comfortably hold — against routine queue share. Serving a
// hole is pure marginal goodput (the request otherwise never meets its
// SLO, however many routine replicas arrive), so it outvotes a whole
// batch of requests any kind could absorb.
const holeBoost = 25

// kindScore prices one replica of kind k against a queue length mix:
// requests the kind could comfortably serve, per predicted prefill second
// they would cost on it, per provisioning cost unit — marginal goodput per
// cost unit. comfort is the fleet's current envelope (the largest
// comfortable prompt across provisioned replicas); queued requests beyond
// it are capability holes and count holeBoost-fold for kinds that close
// them. A kind that cannot hold the queue's long requests loses its
// numerator; a small kind that can serve everything wins on the cheap
// denominator.
func kindScore(k *fleet.ReplicaKind, lens []int, comfort float64) float64 {
	weight, secs := 0.0, 0.0
	for _, n := range lens {
		if float64(n) > fleet.DefaultCapabilityHeadroom*float64(k.MaxContext) {
			continue
		}
		if float64(n) > comfort {
			weight += holeBoost
		} else {
			weight++
		}
		secs += k.PrefillSeconds(n)
	}
	if weight == 0 || secs <= 0 {
		return 0
	}
	return weight / (secs * k.CostUnits)
}

// fleetComfort returns the largest prompt any provisioned (active or
// warming — capacity already paid for) replica comfortably holds.
func (c *controller) fleetComfort() float64 {
	comfort := 0.0
	for _, in := range c.g.ReplicaInfos() {
		if in.State != fleet.ReplicaActive && in.State != fleet.ReplicaWarming {
			continue
		}
		if e := fleet.DefaultCapabilityHeadroom * float64(in.MaxContext); e > comfort {
			comfort = e
		}
	}
	return comfort
}

// pickKind chooses the scale-up kind: the best marginal score, ties to the
// earliest candidate (so the base kind wins when the queue is empty and
// every score is zero).
func (c *controller) pickKind(lens []int) *fleet.ReplicaKind {
	comfort := c.fleetComfort()
	kinds := c.cfg.Kinds
	best, bestScore := kinds[0], kindScore(kinds[0], lens, comfort)
	for _, k := range kinds[1:] {
		if s := kindScore(k, lens, comfort); s > bestScore {
			best, bestScore = k, s
		}
	}
	return best
}

// pressure returns outstanding requests per active replica and the totals
// behind it (engine-reported through serving.LoadReporter where
// available), plus the count of replicas still warming — capacity on the
// way, which the scale-up decision nets against new pressure. Draining
// replicas are capacity *leaving* and count toward neither.
func (c *controller) pressure() (perReplica float64, active, total, warming int) {
	for _, in := range c.g.ReplicaInfos() {
		switch in.State {
		case fleet.ReplicaActive:
			active++
			total += in.QueueDepth
		case fleet.ReplicaWarming:
			warming++
		}
	}
	if active == 0 {
		return 0, 0, 0, warming
	}
	return float64(total) / float64(active), active, total, warming
}

// coolingDown reports whether the controller acted too recently to act
// again.
func (c *controller) coolingDown() bool {
	return c.acted && time.Duration(c.sim.Now()-c.lastAction) < c.cfg.Cooldown
}

// drainVictim picks the active replica to remove: the one with the least
// outstanding work (ties to the highest index, so the newest spare goes
// first). With several candidate kinds, each active replica is first
// scored by how much the current queue mix would *miss* it — its kind's
// marginal score against the fleet's envelope with the replica itself
// excluded, so the last long-context replica shows the capability holes
// its removal would open — and the least-missed replica drains first: a
// spare loong once the long tail has passed, a cheap replica once the mix
// turns long. The loong-shaped hole means it comes back on the next long
// burst (pickKind's holeBoost), closing the kind loop in both directions.
// A one-kind fleet uses the outstanding-work rule alone.
func (c *controller) drainVictim() int {
	infos := c.g.ReplicaInfos()
	var need []float64
	if len(c.cfg.Kinds) > 1 {
		byName := make(map[string]*fleet.ReplicaKind, len(c.cfg.Kinds))
		for _, k := range c.cfg.Kinds {
			byName[k.Name] = k
		}
		lens := c.g.OutstandingInputLens()
		need = make([]float64, len(infos))
		for i, in := range infos {
			if in.State != fleet.ReplicaActive {
				continue
			}
			comfort := 0.0
			for j, jn := range infos {
				if j == i || (jn.State != fleet.ReplicaActive && jn.State != fleet.ReplicaWarming) {
					continue
				}
				if e := fleet.DefaultCapabilityHeadroom * float64(jn.MaxContext); e > comfort {
					comfort = e
				}
			}
			if k := byName[in.Kind]; k != nil {
				need[i] = kindScore(k, lens, comfort)
			}
		}
	}
	best := -1
	for i, in := range infos {
		if in.State != fleet.ReplicaActive {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		if need != nil && need[i] != need[best] {
			if need[i] < need[best] {
				best = i
			}
			continue
		}
		if in.OutstandingTokens <= infos[best].OutstandingTokens {
			best = i
		}
	}
	return best
}

// scaleUp provisions one replica of the marginal-goodput-per-cost-unit
// kind against the current queue mix.
func (c *controller) scaleUp() bool {
	k := c.pickKind(c.g.OutstandingInputLens())
	if _, err := c.g.AddReplica(k, c.cfg.Warmup); err != nil {
		return false
	}
	if c.res.ScaleUpsByKind == nil {
		c.res.ScaleUpsByKind = make(map[string]int)
	}
	c.res.ScaleUpsByKind[k.Name]++
	return true
}

// emitDecision mirrors one scaling decision into the gateway's
// observability stream. label must be a literal ("scale-up"/"scale-down").
func (c *controller) emitDecision(label string, replica, total, active, warming int) {
	sink := c.g.Obs()
	if sink == nil {
		return
	}
	sink.Emit(obs.Event{
		At: c.sim.Now(), Kind: obs.KindAutoscale, Replica: replica, Group: -1,
		Tokens: total, A: int64(active), B: int64(warming), Label: label,
	})
}

// tick is one control period: observe, maybe scale, reschedule while work
// remains.
func (c *controller) tick() {
	c.res.Ticks++
	p, active, total, warming := c.pressure()
	switch {
	case c.coolingDown():
		// hold
	case p > c.cfg.UpAt && c.g.ProvisionedReplicas() < c.cfg.Max:
		// Count warming replicas as capacity on the way: do not stack
		// another scale-up for pressure that help is already coming for,
		// unless pressure keeps climbing well past the trigger.
		if warming == 0 || p > 1.5*c.cfg.UpAt {
			if c.scaleUp() {
				c.res.ScaleUps++
				c.acted = true
				c.lastAction = c.sim.Now()
				c.emitDecision("scale-up", -1, total, active, warming)
			}
		}
	case active > c.cfg.Min && float64(total)/float64(active-1) < c.cfg.DownAt:
		// Consolidation: survivors would carry the whole load with margin.
		if v := c.drainVictim(); v >= 0 {
			if err := c.g.DrainReplica(v); err == nil {
				c.res.ScaleDowns++
				c.acted = true
				c.lastAction = c.sim.Now()
				c.emitDecision("scale-down", v, total, active, warming)
			}
		}
	}
	if n := c.g.ProvisionedReplicas(); n > c.res.PeakReplicas {
		c.res.PeakReplicas = n
	}
	// Keep observing while the workload is unfinished; once every emitted
	// request has completed and every session has no further turns, the
	// loop ends and the simulator drains.
	if c.feed.Completed() < c.feed.Total() {
		c.sim.After(c.cfg.Interval, c.tick)
	}
}

// RunKinds drives a session workload (closed- or open-loop) against an
// elastic fleet: the gateway starts at acfg.Min replicas of acfg.Kinds[0]
// (which must be able to serve every request — it is the only capacity
// until the first scale-up lands) and the controller grows and shrinks it
// from queue pressure, each scale-up picking the candidate kind with the
// best marginal goodput per cost unit against the current queue's length
// mix. A homogeneous fleet is one candidate kind. fcfg.Groups must be
// unset; the composition is the controller's to decide. Deterministic in
// the scripts and configuration.
func RunKinds(scripts []workload.SessionScript, fcfg fleet.Config, acfg Config, closed bool) (*Result, error) {
	if err := acfg.Validate(); err != nil {
		return nil, err
	}
	if len(acfg.Kinds) == 0 {
		return nil, fmt.Errorf("autoscale: RunKinds needs at least one candidate kind")
	}
	if fcfg.Groups != nil {
		return nil, fmt.Errorf("autoscale: RunKinds owns the composition; leave fcfg.Groups unset")
	}
	for _, k := range acfg.Kinds {
		if err := k.Resolve(); err != nil {
			return nil, err
		}
	}
	sim := simevent.New()
	fcfg.Groups = []fleet.ReplicaGroup{{Kind: acfg.Kinds[0], Count: acfg.Min}}
	g, err := fleet.NewGateway(fcfg, sim)
	if err != nil {
		return nil, err
	}
	feed := fleet.FeedSessions(g, scripts, closed)
	res := &Result{PeakReplicas: acfg.Min}
	ctl := &controller{g: g, sim: sim, cfg: acfg, feed: feed, res: res}
	sim.After(acfg.Interval, ctl.tick)
	if err := g.Run(); err != nil {
		return nil, err
	}
	if feed.Completed() != feed.Total() {
		return nil, fmt.Errorf("autoscale: %d of %d requests completed", feed.Completed(), feed.Total())
	}
	res.Result = g.Finalize()
	res.Trace = feed.Trace
	return res, nil
}
