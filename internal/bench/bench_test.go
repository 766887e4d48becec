package bench

import (
	"fmt"
	"strings"
	"testing"

	"loongserve/internal/baselines"
	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/workload"
)

func TestTableFprint(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"=== t ===", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig2TableShape(t *testing.T) {
	tb := Fig2()
	if len(tb.Rows) != 8 {
		t.Fatalf("Fig2 rows = %d, want 8", len(tb.Rows))
	}
	// Long prefill row ends well below 0.5 at TP=8; decode rows stay above.
	longRow := tb.Rows[3]
	if longRow[4] >= "0.50" {
		t.Fatalf("100K prefill at TP=8 not scaling: %v", longRow)
	}
	if !strings.Contains(tb.Notes[0], "105.97") {
		t.Fatal("anchor note missing")
	}
}

func TestFig3TableShape(t *testing.T) {
	tb := Fig3()
	if len(tb.Rows) != 12 {
		t.Fatalf("Fig3 rows = %d, want 12", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[3] != "1.000" {
			t.Fatalf("baseline column not normalized: %v", row)
		}
	}
}

func TestFig14OverheadBounds(t *testing.T) {
	tb := Fig14()
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], "prefill") {
			// scale-down delta column like "0.3%" must stay below 2%.
			d := row[5]
			if !strings.HasSuffix(d, "%") {
				t.Fatalf("bad delta cell %q", d)
			}
			if d >= "2.0%" && !strings.HasPrefix(d, "0.") && !strings.HasPrefix(d, "1.") {
				t.Fatalf("scale-down overhead too high: %v", row)
			}
		}
	}
}

func TestFig15DeviationBound(t *testing.T) {
	tb := Fig15()
	note := tb.Notes[len(tb.Notes)-1]
	var v float64
	if _, err := fmt.Sscanf(note, "max |deviation| = %f%%", &v); err != nil {
		t.Fatalf("unparseable deviation note %q: %v", note, err)
	}
	if v > 15 {
		t.Fatalf("analytical model deviation %.1f%% > 15%%", v)
	}
}

func TestRunTraceCompletes(t *testing.T) {
	trace := workload.PoissonTrace(workload.ShareGPT(), 5, 20, 1)
	recs, err := RunTrace(LoongServeSys(1, core.Options{}), trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("completed %d", len(recs))
	}
}

func TestFig10QuickShapes(t *testing.T) {
	sc := QuickScale()
	// LV-Eval at the lowest rate: LoongServe completes, DistServe OOMs.
	ds := workload.LVEval()
	trace := sc.traceFor(ds, sc.Fig10Rates[ds.Name()][0])
	if _, err := RunTrace(DistServeSys(), trace); err == nil {
		t.Fatal("DistServe should OOM on LV-Eval")
	}
	lsRecs, err := RunTrace(LoongServeSys(1, core.Options{}), trace)
	if err != nil {
		t.Fatal(err)
	}
	vlRecs, err := RunTrace(VLLMSys(1), trace)
	if err != nil {
		t.Fatal(err)
	}
	ls := metrics.Summarize(lsRecs)
	vl := metrics.Summarize(vlRecs)
	if ls.MeanOutput >= vl.MeanOutput {
		t.Fatalf("LoongServe output %.4f should beat vLLM %.4f on LV-Eval", ls.MeanOutput, vl.MeanOutput)
	}
}

func TestDeepSpeedMIIOOMBeyond32K(t *testing.T) {
	trace := []workload.TimedRequest{{Entry: workload.Entry{InputLen: 40_000, OutputLen: 64}}}
	if _, err := RunTrace(DeepSpeedMIISys(), trace); err == nil {
		t.Fatal("DeepSpeed-MII should fail beyond 32K tokens")
	}
}

func TestLightLLMChunkPerDataset(t *testing.T) {
	// The P:D-ratio chunk for L-Eval must be much larger than ShareGPT's.
	sg, ok := LightLLMSys(1, workload.ShareGPT()).NewEngine().(*baselines.SplitFuse)
	if !ok {
		t.Fatal("LightLLM engine is not a SplitFuse")
	}
	le := LightLLMSys(1, workload.LEval()).NewEngine().(*baselines.SplitFuse)
	if le.ChunkSize <= sg.ChunkSize {
		t.Fatalf("L-Eval chunk %d should exceed ShareGPT chunk %d", le.ChunkSize, sg.ChunkSize)
	}
}

func TestP90GoodputMonotoneInput(t *testing.T) {
	// A system that always meets SLO at rate r yields goodput >= r * 0.9.
	sc := QuickScale()
	ds := workload.ShareGPT()
	g := P90Goodput(LoongServeSys(1, core.Options{}), ds, []float64{5}, sc)
	if g < 4 {
		t.Fatalf("goodput %.2f at offered 5 req/s under light load", g)
	}
}

func TestFleetExperimentShape(t *testing.T) {
	sc := QuickScale()
	sc.FleetRates = sc.FleetRates[:2] // keep the unit test fast
	tbl := FleetExperiment(sc)
	// One row per (rate, policy).
	wantRows := len(sc.FleetRates) * len(fleet.AllPolicies(sc.Seed))
	if len(tbl.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), wantRows)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v does not match header %v", row, tbl.Header)
		}
		if row[2] == "OOM" {
			t.Fatalf("fleet run OOMed on a chat workload: %v", row)
		}
	}
	// PrefixAffinity must report a strictly higher hit ratio than
	// RoundRobin at every rate.
	hitRatio := func(rate, policy string) string {
		for _, row := range tbl.Rows {
			if row[0] == rate && row[1] == policy {
				return row[5]
			}
		}
		t.Fatalf("no row for %s/%s", rate, policy)
		return ""
	}
	for _, rate := range sc.FleetRates {
		rs := fmt.Sprint(rate)
		var rr, aff float64
		if _, err := fmt.Sscanf(hitRatio(rs, "RoundRobin"), "%f%%", &rr); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(hitRatio(rs, "PrefixAffinity"), "%f%%", &aff); err != nil {
			t.Fatal(err)
		}
		if aff <= rr {
			t.Errorf("rate %s: PrefixAffinity hit ratio %.1f%% <= RoundRobin %.1f%%", rs, aff, rr)
		}
	}
}

// TestAutoscaleExperimentWins is the acceptance test of the autoscale
// subsystem: on the bursty closed-loop trace the elastic controller's
// cost-normalized goodput (goodput per provisioned replica) is at least
// that of the best static fleet, scaling events are visible in the output,
// and at least one drain migrated live sessions with every request still
// completing.
func TestAutoscaleExperimentWins(t *testing.T) {
	tables := AutoscaleExperiment(QuickScale())
	if len(tables) != 2 {
		t.Fatalf("expected comparison + timeline tables, got %d", len(tables))
	}
	cmp, timeline := tables[0], tables[1]

	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscan(s, &v); err != nil {
			t.Fatalf("unparsable cell %q: %v", s, err)
		}
		return v
	}
	bestStatic, autoScale := 0.0, -1.0
	for _, row := range cmp.Rows {
		if len(row) != len(cmp.Header) {
			t.Fatalf("row %v does not match header %v", row, cmp.Header)
		}
		if row[1] == "ERR" || row[1] == "OOM" {
			t.Fatalf("system %s failed: %v", row[0], row)
		}
		gpr := parse(row[6])
		if row[0] == "autoscale" {
			autoScale = gpr
			if !strings.Contains(row[8], "up") || !strings.Contains(row[8], "down") {
				t.Errorf("autoscale row reports no scaling: %v", row)
			}
		} else if gpr > bestStatic {
			bestStatic = gpr
		}
	}
	if autoScale < 0 {
		t.Fatal("no autoscale row")
	}
	if autoScale < bestStatic {
		t.Errorf("autoscaler goodput/replica %.4f below best static %.4f", autoScale, bestStatic)
	}

	// The timeline must show the full lifecycle, including at least one
	// drain that migrated a replica with live (in-flight) sessions.
	kinds := map[string]int{}
	liveDrain := false
	for _, row := range timeline.Rows {
		kinds[row[1]]++
		if row[1] == "drain" {
			var inflight int
			if _, err := fmt.Sscanf(row[3], "%d in-flight", &inflight); err == nil && inflight > 0 {
				liveDrain = true
			}
		}
	}
	for _, k := range []string{"provision", "active", "drain", "retire"} {
		if kinds[k] == 0 {
			t.Errorf("timeline has no %q events: %v", k, kinds)
		}
	}
	if !liveDrain {
		t.Error("no drain caught a replica with live in-flight sessions")
	}
}

// renderTable gives the byte-exact text a table prints.
func renderTable(tb *Table) string {
	var sb strings.Builder
	tb.Fprint(&sb)
	return sb.String()
}

// TestFleetExperimentParallelDeterminism is the parallel-arms acceptance
// test: the same seeded experiment must produce byte-identical tables
// whether its arms run single-threaded or across goroutines.
func TestFleetExperimentParallelDeterminism(t *testing.T) {
	sc := QuickScale()
	sc.FleetRates = sc.FleetRates[:2] // keep the unit test fast

	serial := sc
	serial.Workers = 1
	parallel := sc
	parallel.Workers = 4

	a := renderTable(FleetExperiment(serial))
	b := renderTable(FleetExperiment(parallel))
	if a != b {
		t.Fatalf("serial and parallel fleet tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestAutoscaleExperimentParallelDeterminism runs the static-ladder +
// controller arms both ways; the closed-loop drivers share the (immutable)
// session scripts, so any hidden mutation would show up here (and under
// -race in CI).
func TestAutoscaleExperimentParallelDeterminism(t *testing.T) {
	sc := QuickScale()

	serial := sc
	serial.Workers = 1
	parallel := sc
	parallel.Workers = 4

	var a, b strings.Builder
	for _, tb := range AutoscaleExperiment(serial) {
		tb.Fprint(&a)
	}
	for _, tb := range AutoscaleExperiment(parallel) {
		tb.Fprint(&b)
	}
	if a.String() != b.String() {
		t.Fatal("serial and parallel autoscale tables differ")
	}
}
