// Package bench is the experiment harness: it wires clusters, engines,
// workloads and metrics into the exact table/figure reproductions of the
// paper's evaluation (§2 Figs 2-3, §7 Figs 10-15), shared by
// cmd/loongserve-bench and the repository-level Go benchmarks.
//
// Figures are rendered as text tables: one row per plotted point, one
// column per series, so the shape of every curve (who wins, by what
// factor, where crossovers fall) can be read directly.
package bench

import (
	"fmt"
	"io"
	"strings"

	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// System describes one runnable serving configuration.
type System struct {
	Name        string
	Nodes       int
	GPUsPerNode int
	TP          int
	NewEngine   func() serving.Engine
}

// LoongServeSys returns the paper's LoongServe configuration: TP=2 elastic
// instances, ESP up to the cluster size.
func LoongServeSys(nodes int, opts core.Options) System {
	return System{
		Name:  "LoongServe",
		Nodes: nodes, GPUsPerNode: 8, TP: 2,
		NewEngine: func() serving.Engine { return core.New(2, opts) },
	}
}

// VLLMSys returns the vLLM baseline (TP=8 over one node, or one TP=8
// replica per node routed round-robin by baselines.Replicated).
func VLLMSys(nodes int) System {
	return System{
		Name:  "vLLM",
		Nodes: nodes, GPUsPerNode: 8, TP: 8,
		NewEngine: func() serving.Engine {
			if nodes == 1 {
				return baselinesVLLM()
			}
			return baselinesReplicatedVLLM()
		},
	}
}

// DistServeSys returns the prefill-decoding disaggregation baseline: four
// GPUs per phase, DoP=4 each, as §7.1 configures it.
func DistServeSys() System {
	return System{
		Name:  "DistServe",
		Nodes: 1, GPUsPerNode: 8, TP: 4,
		NewEngine: func() serving.Engine { return baselinesDistServe() },
	}
}

// RunTrace builds the system's cluster and replays the trace.
func RunTrace(sys System, trace []workload.TimedRequest) ([]metrics.Record, error) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, sys.Nodes, sys.GPUsPerNode, sys.TP)
	if err != nil {
		return nil, err
	}
	return serving.Run(sys.NewEngine(), c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s ===\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
