// Command loongserve-profile generates Scaling Information Base profiles:
// it runs the profiling grids for the requested parallelism strategies,
// fits the Eq 7 analytical models, calibrates the scheduler thresholds, and
// writes everything to a JSON file (the stdlib stand-in for the paper's
// SQLite store).
//
// Example:
//
//	loongserve-profile -o sib.json -strategies sp1tp2,sp2tp2,sp4tp2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
)

func main() {
	out := flag.String("o", "sib.json", "output path")
	strategies := flag.String("strategies", "sp1tp2,sp2tp2,sp3tp2,sp4tp2", "comma-separated spNtpM strategies")
	jitter := flag.Float64("jitter", 0.01, "relative profiling noise")
	maxLen := flag.Int("maxlen", 512_000, "largest profiled batch token count")
	flag.Parse()
	// Relative noise of 1 or more can scale a profiled time to zero or
	// below, and the Eq 7 fit's beta with it.
	if !(*jitter >= 0 && *jitter < 1) {
		fmt.Fprintln(os.Stderr, "loongserve-profile: -jitter must be in [0, 1)")
		os.Exit(2)
	}

	m := model.LWM1MText()
	hw := cluster.A800()
	cm := costmodel.New(m, hw)
	link := cluster.Link{Bandwidth: hw.NVLinkBandwidth, Latency: hw.NVLinkLatency}
	prof := &costmodel.Profiler{CM: cm, Link: link, Jitter: *jitter, Seed: 1}
	sib := costmodel.NewSIB()

	grid := costmodel.DefaultPrefillGrid(*maxLen)
	for _, key := range strings.Split(*strategies, ",") {
		var sp, tp int
		if _, err := fmt.Sscanf(strings.TrimSpace(key), "sp%dtp%d", &sp, &tp); err != nil || sp < 1 || tp < 1 {
			fmt.Fprintf(os.Stderr, "bad strategy %q (want e.g. sp2tp4)\n", key)
			os.Exit(2)
		}
		st := costmodel.Strategy{SP: sp, TP: tp}
		prof.ProfilePrefill(sib, st, grid)
		prof.ProfileDecode(sib, st, sp)
		coeffs, err := sib.PrefillCoeffs(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fit %s: %v\n", st.Key(), err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d prefill samples, Eq7 fit alpha=%.3gs beta=%.3gs/tok gamma=%.3gs/tok^2\n",
			st.Key(), len(sib.Prefill[st.Key()]), coeffs.Alpha, coeffs.Beta, coeffs.Gamma)
	}
	// Thresholds are calibrated against the first strategy.
	first := strings.TrimSpace(strings.Split(*strategies, ",")[0])
	var sp, tp int
	fmt.Sscanf(first, "sp%dtp%d", &sp, &tp)
	prof.CalibrateThresholds(sib, costmodel.Strategy{SP: sp, TP: tp})
	fmt.Printf("tipping point %v, decode batch-size threshold %d\n", sib.PrefillTippingPoint, sib.DecodeBSThreshold)

	if err := sib.Save(*out); err != nil {
		fmt.Fprintf(os.Stderr, "save: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
