package costmodel

import (
	"testing"
	"time"
)

// The scheduler consults fitted coefficients on every decision: a cache-hit
// lookup plus a prediction must not allocate (the former string-keyed
// lookup allocated a formatted key per call).
func TestCoeffsLookupHitAllocs(t *testing.T) {
	sib := NewSIB()
	st := Strategy{SP: 4, TP: 2}
	prof := &Profiler{CM: newCM(), Link: nvlink(), Jitter: 0.01, Seed: 1}
	prof.ProfilePrefill(sib, st, DefaultPrefillGrid(512_000))
	prof.ProfileDecode(sib, st, st.SP)
	if _, err := sib.PrefillCoeffs(st); err != nil {
		t.Fatal(err)
	}
	if _, err := sib.DecodeCoeffs(st); err != nil {
		t.Fatal(err)
	}

	var sink time.Duration
	if avg := testing.AllocsPerRun(200, func() {
		c, err := sib.PrefillCoeffs(st)
		if err != nil {
			t.Fatal(err)
		}
		sink = c.PredictSums(50_000, 2.5e9)
	}); avg != 0 {
		t.Fatalf("PrefillCoeffs hit + PredictSums allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		c, err := sib.DecodeCoeffs(st)
		if err != nil {
			t.Fatal(err)
		}
		sink = c.Predict(64, 1_000_000)
	}); avg != 0 {
		t.Fatalf("DecodeCoeffs hit + Predict allocates %.1f objects per call, want 0", avg)
	}
	_ = sink
}

// PredictSums must agree exactly with Predict over the equivalent length
// vector (the scheduler's running sums accumulate in slice order).
func TestPredictSumsMatchesPredict(t *testing.T) {
	c := Coeffs{Alpha: 0.01, Beta: 2e-6, Gamma: 3e-12}
	lens := []int{100, 5_000, 123_456, 7}
	var sumLen, sumSq float64
	for _, l := range lens {
		sumLen += float64(l)
		sumSq += float64(l) * float64(l)
	}
	if got, want := c.PredictSums(sumLen, sumSq), c.Predict(lens); got != want {
		t.Fatalf("PredictSums = %v, Predict = %v", got, want)
	}
}

// The ground-truth iteration times are on every engine's hot path and must
// not allocate.
func TestIterTimeAllocs(t *testing.T) {
	cm := newCM()
	link := nvlink()
	lens := []int{100_000, 50_000, 2_000, 300}
	var sink time.Duration
	if avg := testing.AllocsPerRun(200, func() {
		sink = cm.PrefillIterTime(lens, 4, 2, link)
		sink += cm.DecodeIterTime(128, 128*4096, 4, 2, 4, link)
	}); avg != 0 {
		t.Fatalf("iteration-time methods allocate %.1f objects per call, want 0", avg)
	}
	// A fused decode window builds one step and evaluates it per boundary.
	if avg := testing.AllocsPerRun(200, func() {
		step := cm.DecodeStep(128, 4, 2, 4, link)
		for i := 0; i < 16; i++ {
			sink += step.At(128*4096 + i*128)
		}
	}); avg != 0 {
		t.Fatalf("DecodeStep and At allocate %.1f objects per window, want 0", avg)
	}
	_ = sink
}
