package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step: the same end-to-end names in -trace 0, the same
// per-layer names and units in -trace 1.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}

	l := &latencies{n: 1, met: 1, window: 1}
	for i := 0; i < minP99Samples; i++ {
		l.ttft, l.tpot = append(l.ttft, 1), append(l.tpot, 1)
	}
	_, js, err := latencyMetrics(l, true)
	if err != nil {
		t.Fatal(err)
	}
	e2e := append([]metric{{Name: "setup_s", Unit: "s"}, {Name: "req_per_ref_s", Unit: "req/ref_s"}, {Name: "peak_rss_mb", Unit: "MB"}}, js...)
	compare := func(kind string, got []def, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, e2e)
	var pl []metric
	for _, d := range perLayer() {
		pl = append(pl, metric{Name: d.name, Unit: d.unit})
	}
	compare("per_layer", doc.PerLayer, pl)
}
