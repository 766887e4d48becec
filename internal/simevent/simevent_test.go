package simevent

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewSimStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(300, func() { got = append(got, 3) })
	s.At(100, func() { got = append(got, 1) })
	s.At(200, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 300 {
		t.Fatalf("final Now() = %v, want 300", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(42, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestAfterAdvancesRelative(t *testing.T) {
	s := New()
	var at Time
	s.After(5*Millisecond, func() {
		at = s.Now()
		s.After(2*Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != Time(7*Millisecond) {
		t.Fatalf("nested After fired at %v, want 7ms", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-time.Second, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event func did not panic")
		}
	}()
	s.At(1, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var e2 *Event
	s.At(1, func() { s.Cancel(e2) })
	e2 = s.At(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestCancelFiredEventIsNoop(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.Run()
	s.Cancel(e) // must not panic
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
}

func TestRunResumesAfterStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 4; i++ {
		s.At(Time(i), func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	s.Run()
	if count != 4 {
		t.Fatalf("count = %d, want 4 after resume", count)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunUntil(12)
	if len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Fatalf("got %v, want [5 10]", got)
	}
	if s.Now() != 12 {
		t.Fatalf("Now() = %v, want 12", s.Now())
	}
	s.Run()
	if len(got) != 4 {
		t.Fatalf("remaining events did not fire: %v", got)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	s := New()
	s.RunUntil(99)
	if s.Now() != 99 {
		t.Fatalf("Now() = %v, want 99", s.Now())
	}
}

func TestMaxEventsPanics(t *testing.T) {
	s := New()
	if s.MaxEvents != defaultMaxEvents {
		t.Fatalf("New().MaxEvents = %d, want %d", s.MaxEvents, defaultMaxEvents)
	}
	s.MaxEvents = 10
	var reschedule func()
	reschedule = func() { s.After(1, reschedule) }
	s.After(1, reschedule)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	s.Run()
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(1, recurse)
		}
	}
	s.After(1, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", s.Now())
	}
}

func TestFiredCounts(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestTimeSecondsAndFromSeconds(t *testing.T) {
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", got)
	}
	if got := FromSeconds(0.25); got != 250*Millisecond {
		t.Fatalf("FromSeconds(0.25) = %v, want 250ms", got)
	}
}

func TestTimeAddSaturates(t *testing.T) {
	huge := Time(1<<63 - 10)
	got := huge.Add(Duration(100))
	if got != Time(1<<63-1) {
		t.Fatalf("Add overflow = %v, want saturation", got)
	}
}

func TestCancelNilIsNoop(t *testing.T) {
	s := New()
	s.Cancel(nil) // must not panic
	s.At(1, func() {})
	s.Cancel(nil)
	s.Run()
	if s.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", s.Fired())
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	s := New()
	e := s.At(10, func() {})
	s.At(20, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after Cancel, want 1 (no tombstones)", s.Pending())
	}
	s.Cancel(e) // double cancel: no-op
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after double Cancel, want 1", s.Pending())
	}
}

func TestOwnedEventRearms(t *testing.T) {
	s := New()
	count := 0
	var e *Event
	e = s.NewEvent(func() {
		count++
		if count < 5 {
			s.ScheduleAfter(e, 3)
		}
	})
	s.ScheduleAt(e, 1)
	s.Run()
	if count != 5 {
		t.Fatalf("owned event fired %d times, want 5", count)
	}
	if s.Now() != 13 {
		t.Fatalf("Now() = %v, want 13", s.Now())
	}
}

func TestOwnedEventDoubleArmPanics(t *testing.T) {
	s := New()
	e := s.NewEvent(func() {})
	s.ScheduleAt(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double arm did not panic")
		}
	}()
	s.ScheduleAt(e, 2)
}

func TestOwnedEventCancelAndRearm(t *testing.T) {
	s := New()
	fired := 0
	e := s.NewEvent(func() { fired++ })
	s.ScheduleAt(e, 1)
	s.Cancel(e)
	s.Run()
	if fired != 0 {
		t.Fatal("cancelled owned event fired")
	}
	s.ScheduleAt(e, 2) // re-arm after cancel
	s.Run()
	if fired != 1 {
		t.Fatalf("re-armed owned event fired %d times, want 1", fired)
	}
}

// The self-rescheduling chain is the hot pattern of every engine's
// iteration loop; with the free list (kernel events) or an owned event it
// must run allocation-free in steady state.
func TestSteadyStateAllocs(t *testing.T) {
	s := New()
	var tick func()
	tick = func() { s.After(1, tick) }
	s.After(1, tick)
	s.Step() // prime the free list
	if avg := testing.AllocsPerRun(200, func() { s.Step() }); avg != 0 {
		t.Fatalf("After/Step chain allocates %.1f objects per event, want 0", avg)
	}

	s2 := New()
	var e *Event
	e = s2.NewEvent(func() { s2.ScheduleAfter(e, 1) })
	s2.ScheduleAfter(e, 1)
	s2.Step()
	if avg := testing.AllocsPerRun(200, func() { s2.Step() }); avg != 0 {
		t.Fatalf("owned event loop allocates %.1f objects per event, want 0", avg)
	}
}

// Property: cancelling a random subset leaves exactly the survivors firing,
// in order — exercising mid-heap removal.
func TestPropertyCancelRandom(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%64) + 2
		var fired []int
		events := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = s.At(Time(rng.Intn(50)), func() { fired = append(fired, i) })
		}
		keep := map[int]bool{}
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				s.Cancel(events[i])
			} else {
				keep[i] = true
			}
		}
		if s.Pending() != len(keep) {
			return false
		}
		s.Run()
		if len(fired) != len(keep) {
			return false
		}
		sorted := sort.SliceIsSorted(fired, func(a, b int) bool {
			ea, eb := events[fired[a]], events[fired[b]]
			if ea.At() != eb.At() {
				return ea.At() < eb.At()
			}
			return fired[a] < fired[b]
		})
		for _, i := range fired {
			if !keep[i] {
				return false
			}
		}
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of random (time, id) pairs, events fire sorted by
// time with scheduling order breaking ties.
func TestPropertyOrderingRandom(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type rec struct {
			at  Time
			seq int
		}
		var scheduled []rec
		var fired []rec
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			at := Time(rng.Intn(50))
			r := rec{at, i}
			scheduled = append(scheduled, r)
			s.At(at, func() { fired = append(fired, r) })
		}
		s.Run()
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		if len(fired) != len(scheduled) {
			return false
		}
		for i := range fired {
			if fired[i] != scheduled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — running the same random workload twice produces
// identical firing sequences.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var log []Time
		var add func(depth int)
		add = func(depth int) {
			log = append(log, s.Now())
			if depth < 3 {
				k := rng.Intn(3)
				for i := 0; i < k; i++ {
					s.After(Duration(rng.Intn(1000)), func() { add(depth + 1) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			s.At(Time(rng.Intn(100)), func() { add(0) })
		}
		s.Run()
		return log
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
