package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleN(ds Dataset, n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		out[i] = ds.Sample(rng)
	}
	return out
}

// §7.1 dataset ranges: ShareGPT 4-2.3K, L-Eval 2.7K-210.5K, LV-Eval
// 15.1K-497.3K.
func TestDatasetRanges(t *testing.T) {
	cases := []struct {
		ds     Dataset
		lo, hi int
	}{
		{ShareGPT(), 4, 2_300},
		{LEval(), 2_700, 210_500},
		{LVEval(), 15_100, 497_300},
	}
	for _, tc := range cases {
		entries := sampleN(tc.ds, 3000, 1)
		st := Summarize(entries)
		if st.MinInput < tc.lo || st.MaxInput > tc.hi {
			t.Fatalf("%s: input range [%d, %d] outside [%d, %d]",
				tc.ds.Name(), st.MinInput, st.MaxInput, tc.lo, tc.hi)
		}
		// The tails should actually reach near both ends.
		if float64(st.MaxInput) < 0.5*float64(tc.hi) {
			t.Fatalf("%s: max input %d never approaches range cap %d", tc.ds.Name(), st.MaxInput, tc.hi)
		}
		for _, e := range entries {
			if e.OutputLen <= 0 {
				t.Fatalf("%s: non-positive output length", tc.ds.Name())
			}
		}
	}
}

// TestDatasetByName: the seven CLI spellings, in any case, resolve to their
// datasets; anything else is an error naming the input.
func TestDatasetByName(t *testing.T) {
	for name, want := range map[string]string{
		"sharegpt": "ShareGPT", "ShareGPT-Long": "ShareGPT-long",
		"leval": "L-Eval", "L-EVAL": "L-Eval",
		"lveval": "LV-Eval", "lv-eval": "LV-Eval", "Mixed": "Mixed",
	} {
		ds, err := DatasetByName(name)
		if err != nil || ds.Name() != want {
			t.Errorf("DatasetByName(%q) = %v, %v; want %s", name, ds, err, want)
		}
	}
	if _, err := DatasetByName("nope"); err == nil || err.Error() != `unknown dataset "nope"` {
		t.Errorf("DatasetByName(nope) error = %v", err)
	}
}

func TestDatasetMeansOrdered(t *testing.T) {
	// Mean input length must be strongly ordered ShareGPT << L-Eval <<
	// LV-Eval; ShareGPT outputs are the longest relative to inputs.
	sg := Summarize(sampleN(ShareGPT(), 3000, 2))
	le := Summarize(sampleN(LEval(), 3000, 2))
	lv := Summarize(sampleN(LVEval(), 3000, 2))
	if !(sg.MeanInput < le.MeanInput/10 && le.MeanInput < lv.MeanInput) {
		t.Fatalf("mean inputs not ordered: %f %f %f", sg.MeanInput, le.MeanInput, lv.MeanInput)
	}
	if sg.MeanOutput < sg.MeanInput/3 {
		t.Fatalf("ShareGPT outputs too short: in=%f out=%f", sg.MeanInput, sg.MeanOutput)
	}
	if lv.MeanOutput > lv.MeanInput/50 {
		t.Fatalf("LV-Eval outputs too long relative to inputs: in=%f out=%f", lv.MeanInput, lv.MeanOutput)
	}
}

func TestMixedCoversAllRanges(t *testing.T) {
	entries := sampleN(Mixed(), 6000, 3)
	var short, mid, long int
	for _, e := range entries {
		switch {
		case e.InputLen <= 2_300:
			short++
		case e.InputLen <= 210_500:
			mid++
		default:
			long++
		}
	}
	if short == 0 || mid == 0 || long == 0 {
		t.Fatalf("mixed does not cover all ranges: %d/%d/%d", short, mid, long)
	}
	// Roughly one third each (short bucket = exactly the ShareGPT share).
	if frac := float64(short) / 6000; frac < 0.25 || frac > 0.42 {
		t.Fatalf("ShareGPT share %.2f, want ≈1/3", frac)
	}
}

func TestSampleDeterministic(t *testing.T) {
	a := sampleN(Mixed(), 100, 7)
	b := sampleN(Mixed(), 100, 7)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestZipfSkewsShort(t *testing.T) {
	base := Mixed()
	weak := NewZipf(base, 1.0, 200_000, 5)
	strong := NewZipf(base, 1.4, 200_000, 5)
	sWeak := Summarize(sampleN(weak, 4000, 11))
	sStrong := Summarize(sampleN(strong, 4000, 11))
	if sStrong.MeanInput >= sWeak.MeanInput {
		t.Fatalf("zipf 1.4 mean %f should be < zipf 1.0 mean %f", sStrong.MeanInput, sWeak.MeanInput)
	}
	if sWeak.MaxInput > 200_000 || sStrong.MaxInput > 200_000 {
		t.Fatal("zipf cap violated")
	}
}

func TestZipfRejectsBadS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("s=0 accepted")
		}
	}()
	NewZipf(Mixed(), 0, 200_000, 1)
}

func TestPoissonTraceProperties(t *testing.T) {
	trace := PoissonTrace(ShareGPT(), 2.0, 5000, 13)
	if len(trace) != 5000 {
		t.Fatalf("trace length %d", len(trace))
	}
	// Arrivals strictly increasing.
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival <= trace[i-1].Arrival {
			t.Fatal("arrivals not increasing")
		}
	}
	// Mean rate ≈ 2 req/s.
	total := trace[len(trace)-1].Arrival.Seconds()
	rate := float64(len(trace)) / total
	if math.Abs(rate-2.0) > 0.15 {
		t.Fatalf("empirical rate %.3f, want ≈2.0", rate)
	}
}

func TestPoissonTraceRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 0 accepted")
		}
	}()
	PoissonTrace(ShareGPT(), 0, 10, 1)
}

func TestPoissonTraceDeterministic(t *testing.T) {
	a := PoissonTrace(LEval(), 0.5, 50, 21)
	b := PoissonTrace(LEval(), 0.5, 50, 21)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.N != 0 || st.TotalTokens != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	st := Summarize([]Entry{{InputLen: 10, OutputLen: 2}, {InputLen: 30, OutputLen: 4}})
	if st.MinInput != 10 || st.MaxInput != 30 || st.MeanInput != 20 || st.MeanOutput != 3 || st.TotalTokens != 46 {
		t.Fatalf("summary wrong: %+v", st)
	}
}

// Property: every sample from every dataset stays within its documented
// range and has positive output length.
func TestPropertyDatasetRangeInvariant(t *testing.T) {
	sets := []struct {
		ds     Dataset
		lo, hi int
	}{
		{ShareGPT(), 4, 2_300},
		{LEval(), 2_700, 210_500},
		{LVEval(), 15_100, 497_300},
	}
	f := func(seed int64, which uint8) bool {
		tc := sets[int(which)%len(sets)]
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			e := tc.ds.Sample(rng)
			if e.InputLen < tc.lo || e.InputLen > tc.hi || e.OutputLen <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
