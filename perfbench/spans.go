package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"loongserve/internal/fleet"
	"loongserve/internal/frontend"
	"loongserve/internal/obs"
	"loongserve/internal/serving"
)

// span is one timed call across a seam the benchmark owns.
type span struct {
	name   string
	parent int32 // index of the enclosing span, -1 for a root
	req    int64 // request id, -1 where none exists
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer holds the traced run's spans in memory until the run ends. Spans
// opened with begin nest on the goroutine that drives the simulation (the
// only goroutine that enters the simulator's seams, except for the
// sharded runner's completions); spans on any other goroutine use open
// with an explicit parent. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int32
	emits [64]uint64 // sink events by obs.Kind
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost span open on the driving goroutine.
func (t *tracer) begin(name string, req int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: t.now()})
	t.stack = append(t.stack, i)
	t.mu.Unlock()
	return i
}

// end closes the innermost span opened by begin.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// open starts a span with an explicit parent, from any goroutine.
func (t *tracer) open(name string, req int64, parent int32) int32 {
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: t.now()})
	t.mu.Unlock()
	return i
}

// close ends a span started by open.
func (t *tracer) close(i int32) {
	t.mu.Lock()
	t.spans[i].end = t.now()
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name. Self time is each span's
// duration minus the time its child spans cover.
type spanStat struct {
	name        string
	count       int
	total, self int64 // ns
}

func (t *tracer) stats() map[string]*spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			out[s.name] = st
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
	}
	return out
}

// firstTokenMs returns, for every Generate span, the time from its start
// to its first token span: the server-side time to first token.
func (t *tracer) firstTokenMs() []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == "frontend.Generator.token" && s.req == 0 {
			out = append(out, float64(s.start-t.spans[s.parent].start)/1e6)
		}
	}
	return out
}

// table renders the span statistics, largest self time first.
func spanTable(stats map[string]*spanStat) string {
	list := make([]*spanStat, 0, len(stats))
	for _, s := range stats {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].self != list[j].self {
			return list[i].self > list[j].self
		}
		return list[i].name < list[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "  spans (traced pass): %-34s %9s %12s %12s %12s\n", "seam", "count", "total_ms", "self_ms", "mean_us")
	for _, s := range list {
		fmt.Fprintf(&b, "  %-55s %9d %12.3f %12.3f %12.3f\n", s.name, s.count,
			float64(s.total)/1e6, float64(s.self)/1e6, float64(s.total)/1e3/float64(s.count))
	}
	return b.String()
}

// emitTable renders the events the auditor received, by kind ("" when the
// workload has no auditor).
func (t *tracer) emitTable() string {
	var b strings.Builder
	for k, n := range t.emits {
		if n > 0 {
			fmt.Fprintf(&b, " %s=%d", obs.Kind(k), n)
		}
	}
	if b.Len() == 0 {
		return ""
	}
	return "  auditor events by kind (traced pass):" + b.String() + "\n"
}

// write stores every span as one tab-separated line:
// name, parent, request, start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tparent\treq\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Seam decorators. Each forwards every call unchanged and mirrors the
// exact optional-interface set of the value it wraps, because the fleet
// gateway changes behaviour on type assertions (serving.LoadReporter,
// serving.CapabilityReporter, serving.Traceable, serving.DecodeFuser,
// fleet.MigrationAware, fleet.DirectoryAware): a decorator that hid or
// added one would change the simulation it measures.

const (
	ifLoad = 1 << iota
	ifCapability
	ifTraceable
	ifFuser
)

func engineInterfaces(e serving.Engine) int {
	set := 0
	if _, ok := e.(serving.LoadReporter); ok {
		set |= ifLoad
	}
	if _, ok := e.(serving.CapabilityReporter); ok {
		set |= ifCapability
	}
	if _, ok := e.(serving.Traceable); ok {
		set |= ifTraceable
	}
	if _, ok := e.(serving.DecodeFuser); ok {
		set |= ifFuser
	}
	return set
}

// tracedEngine spans serving.Engine.Arrive, Init and every Env.Complete.
// detached marks engines whose completions run on the sharded runner's
// worker goroutines rather than the driving one.
type tracedEngine struct {
	inner    serving.Engine
	t        *tracer
	detached bool
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Init(env *serving.Env) error {
	complete, t := env.Complete, e.t
	if e.detached {
		env.Complete = func(r *serving.Request) {
			i := t.open("serving.Env.Complete", int64(r.ID), -1)
			complete(r)
			t.close(i)
		}
	} else {
		env.Complete = func(r *serving.Request) {
			i := t.begin("serving.Env.Complete", int64(r.ID))
			complete(r)
			t.end(i)
		}
	}
	i := t.begin("serving.Engine.Init", -1)
	defer t.end(i)
	return e.inner.Init(env)
}

func (e *tracedEngine) Arrive(r *serving.Request) {
	i := e.t.begin("serving.Engine.Arrive", int64(r.ID))
	e.inner.Arrive(r)
	e.t.end(i)
}

// engineLC mirrors engines that report load and capability (the
// continuous-batching baselines).
type engineLC struct{ *tracedEngine }

func (e engineLC) Load() serving.LoadStats { return e.inner.(serving.LoadReporter).Load() }
func (e engineLC) Capability() serving.Capability {
	return e.inner.(serving.CapabilityReporter).Capability()
}

// engineLCTF additionally mirrors obs-sink attachment and decode fusion
// (the LoongServe core engine).
type engineLCTF struct{ engineLC }

func (e engineLCTF) AttachObsSink(s obs.Sink, replica int) {
	e.inner.(serving.Traceable).AttachObsSink(s, replica)
}
func (e engineLCTF) SetDecodeFusion(on bool) { e.inner.(serving.DecodeFuser).SetDecodeFusion(on) }

// engine wraps a serving engine. It panics for an optional-interface set
// it has no mirror for: that is a benchmark bug, and the decorator tests
// cover every engine the workloads build.
func (t *tracer) engine(inner serving.Engine, detached bool) serving.Engine {
	base := &tracedEngine{inner: inner, t: t, detached: detached}
	switch engineInterfaces(inner) {
	case ifLoad | ifCapability:
		return engineLC{base}
	case ifLoad | ifCapability | ifTraceable | ifFuser:
		return engineLCTF{engineLC{base}}
	}
	panic(fmt.Sprintf("perfbench: no traced mirror for %T's optional-interface set %04b", inner, engineInterfaces(inner)))
}

// tracedPolicy spans fleet.Policy.Pick.
type tracedPolicy struct {
	inner fleet.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Pick(req fleet.RequestInfo, replicas []fleet.ReplicaView) int {
	i := p.t.begin("fleet.Policy.Pick", int64(req.ID))
	defer p.t.end(i)
	return p.inner.Pick(req, replicas)
}

// migratingPolicy mirrors fleet.MigrationAware policies.
type migratingPolicy struct{ *tracedPolicy }

func (p migratingPolicy) PickMigrate(req fleet.RequestInfo, replicas []fleet.ReplicaView, m fleet.Migrator) fleet.Decision {
	i := p.t.begin("fleet.Policy.PickMigrate", int64(req.ID))
	defer p.t.end(i)
	return p.inner.(fleet.MigrationAware).PickMigrate(req, replicas, m)
}

// policy wraps a routing policy. Directory-aware policies are refused: the
// gateway type-asserts *fleet.ContentAffinity to emit content-route
// events, so any wrapper would drop them; such policies stay unwrapped and
// are attributed from CPU samples instead.
func (t *tracer) policy(inner fleet.Policy) fleet.Policy {
	if _, ok := inner.(fleet.DirectoryAware); ok {
		panic(fmt.Sprintf("perfbench: %T is directory-aware and must stay unwrapped", inner))
	}
	base := &tracedPolicy{inner: inner, t: t}
	if _, ok := inner.(fleet.MigrationAware); ok {
		return migratingPolicy{base}
	}
	return base
}

// tracedSink spans obs.Sink.Emit into the stream auditor and counts events
// by kind.
type tracedSink struct {
	inner obs.Sink
	t     *tracer
}

func (s *tracedSink) Emit(e obs.Event) {
	i := s.t.begin("obs.Sink.Emit", e.Request)
	s.inner.Emit(e)
	s.t.end(i)
	s.t.emits[e.Kind]++ // Emit runs on the driving goroutine only
}

func (t *tracer) sink(inner obs.Sink) obs.Sink { return &tracedSink{inner: inner, t: t} }

// tracedGenerator spans frontend.Generator.Generate, with one child span
// per emitted token covering the server's write of that token.
type tracedGenerator struct {
	inner frontend.Generator
	t     *tracer
}

func (g *tracedGenerator) MaxContext() int { return g.inner.MaxContext() }

func (g *tracedGenerator) Generate(ctx context.Context, prompt []int, maxTokens int, temperature float64, seed int64, emit func(id int) error) (string, error) {
	i := g.t.open("frontend.Generator.Generate", -1, -1)
	defer g.t.close(i)
	n := int64(0)
	return g.inner.Generate(ctx, prompt, maxTokens, temperature, seed, func(id int) error {
		c := g.t.open("frontend.Generator.token", n, i)
		n++
		err := emit(id)
		g.t.close(c)
		return err
	})
}

func (t *tracer) generator(inner frontend.Generator) frontend.Generator {
	return &tracedGenerator{inner: inner, t: t}
}
