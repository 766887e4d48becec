package obs

import (
	"strings"
	"testing"

	"loongserve/internal/simevent"
)

// TestKindStrings: every kind has a distinct non-empty name, and the
// engine-kind predicate splits the enum where documented.
func TestKindStrings(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if Kind(numKinds).String() != "kind(20)" && !strings.HasPrefix(Kind(numKinds).String(), "kind(") {
		t.Fatalf("out-of-range kind should render as kind(N), got %q", Kind(numKinds).String())
	}
	if KindFinish.EngineKind() {
		t.Fatal("finish is a gateway kind")
	}
	if !KindPrefillStart.EngineKind() || !KindEngineEvent.EngineKind() {
		t.Fatal("engine kinds misclassified")
	}
}

// TestCollectorAndCounts: arrival order is retained, Reset keeps capacity,
// and Counts tallies per kind.
func TestCollectorAndCounts(t *testing.T) {
	var c Collector
	c.Emit(Event{At: 1, Kind: KindEnqueue, Request: 1})
	c.Emit(Event{At: 2, Kind: KindRoute, Request: 1, Replica: 0})
	c.Emit(Event{At: 3, Kind: KindRoute, Request: 2, Replica: 1})
	if len(c.Events) != 3 || c.Events[0].Kind != KindEnqueue || c.Events[2].Replica != 1 {
		t.Fatalf("collector lost order: %+v", c.Events)
	}
	counts := Counts(c.Events)
	if counts[KindEnqueue] != 1 || counts[KindRoute] != 2 {
		t.Fatalf("counts = %v", counts)
	}

	c.Reset()
	if len(c.Events) != 0 || cap(c.Events) < 3 {
		t.Fatalf("reset should keep capacity: len=%d cap=%d", len(c.Events), cap(c.Events))
	}
}

// TestCollectorEmitAllocFree: once the backing array is warm, Emit does not
// allocate — the Event is a value type and append reuses capacity.
func TestCollectorEmitAllocFree(t *testing.T) {
	var c Collector
	for i := 0; i < 64; i++ {
		c.Emit(Event{At: simevent.Time(i), Kind: KindRoute, Label: "static"})
	}
	c.Reset()
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		if i == 64 {
			c.Reset()
			i = 0
		}
		c.Emit(Event{At: simevent.Time(i), Kind: KindRoute, Label: "static"})
		i++
	})
	if allocs != 0 {
		t.Fatalf("warmed Collector.Emit allocates %.1f per call, want 0", allocs)
	}
}

// TestTee fans out in order.
func TestTee(t *testing.T) {
	a, b := &Collector{}, &Collector{}
	tee := Tee{a, b}
	tee.Emit(Event{Kind: KindFinish, Request: 9})
	if len(a.Events) != 1 || len(b.Events) != 1 || a.Events[0].Request != 9 {
		t.Fatalf("tee did not fan out: a=%v b=%v", a.Events, b.Events)
	}
}

// TestTimeline renders one event of every kind, one line per event, with
// replica attribution and kind names present; only engine kinds take the
// group/dop/batch layout.
func TestTimeline(t *testing.T) {
	events := []Event{
		{At: 1e9, Kind: KindEnqueue, Replica: -1, Session: 7, Request: 1, Tokens: 100, A: 20},
		{At: 2e9, Kind: KindRoute, Replica: 2, Session: 7, Request: 1, A: -1, Label: "affinity"},
		{At: 3e9, Kind: KindCacheLookup, Replica: 2, Session: 7, Request: 1, Tokens: 50, A: 100},
		{At: 4e9, Kind: KindMigrate, Replica: 2, A: 0, Tokens: 500, B: 1e6, Label: "drain"},
		{At: 5e9, Kind: KindFinish, Replica: 2, Session: 7, Request: 1, Tokens: 20, A: 35e8, B: 1e9},
		{At: 6e9, Kind: KindAutoscale, Replica: -1, Tokens: 4, A: 2, B: 1, Label: "scale-up"},
		{At: 7e9, Kind: KindProvision, Replica: 3, Label: "gpu-large"},
		{At: 8e9, Kind: KindPrefillStart, Replica: 2, Group: 1, Tokens: 100, A: 4, B: 2},
	}
	for k := Kind(0); k < numKinds; k++ {
		events = append(events, Event{At: 9e9, Kind: k, Replica: 1, Group: -1, Session: 7, Request: 1, Tokens: 3, A: 4, B: 5, Label: "x"})
	}
	var sb strings.Builder
	Timeline(&sb, events)
	out := sb.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("timeline has %d lines, want %d:\n%s", len(lines), len(events), out)
	}
	for i, e := range events {
		if engine := strings.Contains(lines[i], " dop="); engine != e.Kind.EngineKind() {
			t.Errorf("%v rendered as %q: engine layout %v, want %v", e.Kind, lines[i], engine, e.Kind.EngineKind())
		}
	}
	for _, want := range []string{"enqueue", "route", "cache-lookup", "migrate", "finish", "autoscale", "provision", "prefill-start", "r2", "fleet", "affinity", "gpu-large"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

// teeProbe records the interleaving Tee produces: which sink saw which
// event, in global order.
type teeProbe struct {
	id  int
	log *[]int // appended with id on every Emit
}

func (p *teeProbe) Emit(Event) { *p.log = append(*p.log, p.id) }

// TestTeeEmitOrdering pins the documented guarantee: Tee delivers each
// event to every sink in slice order, completing one event's fan-out
// before the next event begins — sinks never observe reordered streams.
func TestTeeEmitOrdering(t *testing.T) {
	var log []int
	tee := Tee{&teeProbe{0, &log}, &teeProbe{1, &log}, &teeProbe{2, &log}}
	const events = 5
	for i := 0; i < events; i++ {
		tee.Emit(Event{At: simevent.Time(i), Kind: KindEnqueue})
	}
	if len(log) != 3*events {
		t.Fatalf("fan-out delivered %d emits, want %d", len(log), 3*events)
	}
	for i, id := range log {
		if id != i%3 {
			t.Fatalf("delivery %d went to sink %d, want sink %d (in-order fan-out)", i, id, i%3)
		}
	}
}

// TestCollectorResetReusesBacking pins Reset's documented guarantee: the
// backing array survives, so a reused collector re-fills to its previous
// high-water mark without allocating and without changing identity.
func TestCollectorResetReusesBacking(t *testing.T) {
	var c Collector
	const n = 128
	for i := 0; i < n; i++ {
		c.Emit(Event{At: simevent.Time(i), Kind: KindRoute, Label: "static"})
	}
	before := &c.Events[0]
	c.Reset()
	if len(c.Events) != 0 || cap(c.Events) < n {
		t.Fatalf("reset: len=%d cap=%d, want 0 and >= %d", len(c.Events), cap(c.Events), n)
	}
	allocs := testing.AllocsPerRun(8, func() {
		c.Reset()
		for i := 0; i < n; i++ {
			c.Emit(Event{At: simevent.Time(i), Kind: KindRoute, Label: "static"})
		}
	})
	if allocs != 0 {
		t.Fatalf("reset-and-refill cycle allocates %.1f, want 0", allocs)
	}
	if &c.Events[0] != before {
		t.Fatal("reset-and-refill moved the backing array — reuse guarantee broken")
	}
}

// TestKindByName: the name → kind lookup inverts String for every kind
// and rejects unknowns.
func TestKindByName(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Fatal("unknown name accepted")
	}
}
