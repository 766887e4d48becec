package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// FaultKind names an injectable fleet fault.
type FaultKind string

// Fault kinds. Crash destroys a replica's resident KV and kills its
// in-flight work; Stall freezes a replica's arrivals for a while (the
// straggler model request hedging defends against); CacheDrop wipes one
// instance's control-plane metadata cache (the partial failure the
// manager's Nak/resend path repairs); Drain scales a replica in mid-run
// (planned churn: its sessions evacuate over the link); Degrade slows
// every inter-replica link transfer by Factor for Window (congested or
// flapping interconnect — drains, migrations and cold-tier fetches all
// pay it).
const (
	FaultCrash     FaultKind = "crash"
	FaultStall     FaultKind = "stall"
	FaultCacheDrop FaultKind = "cachedrop"
	FaultDrain     FaultKind = "drain"
	FaultDegrade   FaultKind = "degrade"
)

// Fault is one scheduled fault. Slot is an abstract target selector: the
// injector resolves it against the replicas alive at fire time (slot mod
// live count), so a schedule stays meaningful whatever the fleet has scaled
// to — and stays deterministic, because resolution depends only on
// simulated state.
type Fault struct {
	At    time.Duration
	Kind  FaultKind
	Slot  int
	Stall time.Duration // stall duration; zero for other kinds
	// Link-degradation window (FaultDegrade only): transfers cost Factor
	// times their nominal link time until Window elapses.
	Window time.Duration
	Factor float64
}

// Validate reports why a fault cannot be scheduled: a negative fire time,
// slot, stall or window, an unknown kind, or a link-degrade factor below 1
// (a degrade cannot speed links up). GenFaults only draws valid faults.
func (f Fault) Validate() error {
	switch f.Kind {
	case FaultCrash, FaultStall, FaultCacheDrop, FaultDrain, FaultDegrade:
	default:
		return fmt.Errorf("workload: unknown fault kind %q", f.Kind)
	}
	switch {
	case f.At < 0:
		return fmt.Errorf("workload: %s fault at negative time %v", f.Kind, f.At)
	case f.Slot < 0:
		return fmt.Errorf("workload: %s fault has negative slot %d", f.Kind, f.Slot)
	case f.Stall < 0:
		return fmt.Errorf("workload: %s fault has negative stall %v", f.Kind, f.Stall)
	case f.Window < 0:
		return fmt.Errorf("workload: %s fault has negative window %v", f.Kind, f.Window)
	case f.Kind == FaultDegrade && !(f.Factor >= 1):
		return fmt.Errorf("workload: degrade fault factor %v < 1", f.Factor)
	}
	return nil
}

// FaultRates parameterizes a generated fault schedule as mean events per
// simulated minute, the operator-facing unit (CLI -faults flag).
type FaultRates struct {
	CrashPerMin     float64
	StallPerMin     float64
	CacheDropPerMin float64
	DrainPerMin     float64
	DegradePerMin   float64
	// StallMean is the mean of the exponentially distributed stall length
	// (default 3s).
	StallMean time.Duration
	// DegradeMean is the mean of the exponentially distributed
	// link-degradation window (default 10s); DegradeFactor is the slowdown
	// applied inside it (default 4x).
	DegradeMean   time.Duration
	DegradeFactor float64
}

// GenFaults draws a deterministic fault schedule over [0, horizon): for
// each kind, a count matching the configured rate in expectation (the
// fractional part resolved by one Bernoulli draw), fire times uniform over
// the horizon, targets uniform over slots. Sorted by time so injection can
// stage the schedule directly.
func GenFaults(seed int64, r FaultRates, horizon time.Duration) []Fault {
	rng := rand.New(rand.NewSource(seed))
	stallMean := r.StallMean
	if stallMean <= 0 {
		stallMean = 3 * time.Second
	}
	degradeMean := r.DegradeMean
	if degradeMean <= 0 {
		degradeMean = 10 * time.Second
	}
	degradeFactor := r.DegradeFactor
	if degradeFactor <= 1 {
		degradeFactor = 4
	}
	minutes := horizon.Minutes()
	var out []Fault
	gen := func(kind FaultKind, perMin float64) {
		expected := perMin * minutes
		n := int(expected)
		if rng.Float64() < expected-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			f := Fault{
				At:   time.Duration(rng.Float64() * float64(horizon)),
				Kind: kind,
				Slot: rng.Intn(1 << 16),
			}
			if kind == FaultStall {
				f.Stall = time.Duration(rng.ExpFloat64() * float64(stallMean))
			}
			if kind == FaultDegrade {
				f.Window = time.Duration(rng.ExpFloat64() * float64(degradeMean))
				f.Factor = degradeFactor
			}
			out = append(out, f)
		}
	}
	gen(FaultCrash, r.CrashPerMin)
	gen(FaultStall, r.StallPerMin)
	gen(FaultCacheDrop, r.CacheDropPerMin)
	gen(FaultDrain, r.DrainPerMin)
	gen(FaultDegrade, r.DegradePerMin)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Slot < b.Slot
	})
	return out
}
