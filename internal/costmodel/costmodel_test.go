package costmodel

import (
	"math"
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/model"
)

func newCM() *CostModel {
	return New(model.LWM1MText(), cluster.A800())
}

func nvlink() cluster.Link {
	hw := cluster.A800()
	return cluster.Link{Bandwidth: hw.NVLinkBandwidth, Latency: hw.NVLinkLatency}
}

func ib() cluster.Link {
	hw := cluster.A800()
	return cluster.Link{Bandwidth: hw.IBBandwidth, Latency: hw.IBLatency}
}

// Paper anchor (§2.4 / Fig 2): processing 100K input tokens on 8 GPUs is
// 105.97x slower than processing 1K tokens.
func TestPaperAnchor100KTo1KRatio(t *testing.T) {
	cm := newCM()
	t100k := cm.PrefillIterTime([]int{100_000}, 1, 8, nvlink())
	t1k := cm.PrefillIterTime([]int{1_000}, 1, 8, nvlink())
	ratio := float64(t100k) / float64(t1k)
	if ratio < 85 || ratio > 125 {
		t.Fatalf("100K/1K ratio = %.1f, want ≈106 (t100k=%v t1k=%v)", ratio, t100k, t1k)
	}
}

// Fig 2 (top): long prefills scale nearly linearly with the TP degree;
// short prefills barely benefit.
func TestFig2PrefillScalingShape(t *testing.T) {
	cm := newCM()
	long2 := cm.PrefillIterTime([]int{100_000}, 1, 2, nvlink())
	long8 := cm.PrefillIterTime([]int{100_000}, 1, 8, nvlink())
	speedupLong := float64(long2) / float64(long8)
	if speedupLong < 2.5 {
		t.Fatalf("100K tokens 2->8 GPUs speedup = %.2f, want near-linear (>2.5)", speedupLong)
	}
	short2 := cm.PrefillIterTime([]int{100}, 1, 2, nvlink())
	short8 := cm.PrefillIterTime([]int{100}, 1, 8, nvlink())
	speedupShort := float64(short2) / float64(short8)
	if speedupShort > 1.3 {
		t.Fatalf("100 tokens 2->8 GPUs speedup = %.2f, want ≈1 (overhead bound)", speedupShort)
	}
}

// Fig 2 (bottom): decoding scales poorly with the TP degree — a 4x GPU
// increase buys well under 2x.
func TestFig2DecodeScalingShape(t *testing.T) {
	cm := newCM()
	d2 := cm.DecodeIterTime(16, 16*500, 1, 2, 1, nvlink())
	d8 := cm.DecodeIterTime(16, 16*500, 1, 8, 1, nvlink())
	speedup := float64(d2) / float64(d8)
	if speedup < 1.0 || speedup > 2.2 {
		t.Fatalf("decode 2->8 GPUs speedup = %.2f, want modest (1-2.2)", speedup)
	}
}

// Fig 3: SPxTP hybrids match or beat pure TP on the same GPU count for
// long sequences, and are no worse than ~15% on short ones.
func TestFig3SPvsTPShape(t *testing.T) {
	cm := newCM()
	for _, tc := range []struct {
		lens []int
	}{
		{[]int{500_000}},
		{lensRepeat(50_000, 16)},
	} {
		tp8 := cm.PrefillIterTime(tc.lens, 1, 8, nvlink())
		sp2tp4 := cm.PrefillIterTime(tc.lens, 2, 4, nvlink())
		sp4tp2 := cm.PrefillIterTime(tc.lens, 4, 2, nvlink())
		if float64(sp4tp2) > 1.05*float64(tp8) {
			t.Fatalf("lens %v: SP4TP2 %v should be <= ~TP8 %v", tc.lens[:1], sp4tp2, tp8)
		}
		if float64(sp2tp4) > 1.05*float64(tp8) {
			t.Fatalf("lens %v: SP2TP4 %v should be <= ~TP8 %v", tc.lens[:1], sp2tp4, tp8)
		}
	}
	// Short sequences: hybrids pay ring latency but stay within 15%.
	short := lensRepeat(1_000, 4)
	tp8 := cm.PrefillIterTime(short, 1, 8, nvlink())
	sp4tp2 := cm.PrefillIterTime(short, 4, 2, nvlink())
	if float64(sp4tp2) > 1.15*float64(tp8) {
		t.Fatalf("short batch: SP4TP2 %v much worse than TP8 %v", sp4tp2, tp8)
	}
}

func lensRepeat(l, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = l
	}
	return out
}

// Fig 14b: multi-master decoding gives ~2x at large batch sizes and costs
// <10% at batch size 1.
func TestFig14bMultiMasterShape(t *testing.T) {
	cm := newCM()
	link := nvlink()
	big1 := cm.DecodeIterTime(1024, 1024*10, 4, 2, 1, link)
	big4 := cm.DecodeIterTime(1024, 1024*10, 4, 2, 4, link)
	if gain := float64(big1) / float64(big4); gain < 1.7 {
		t.Fatalf("BS=1024 multi-master gain = %.2f, want ≈2x", gain)
	}
	small1 := cm.DecodeIterTime(1, 200_000, 1, 2, 1, cluster.Link{Bandwidth: cm.HW.MemBandwidth})
	small4 := cm.DecodeIterTime(1, 200_000, 4, 2, 4, link)
	if overhead := float64(small4)/float64(small1) - 1; overhead > 0.12 {
		t.Fatalf("BS=1 scale-up overhead = %.1f%%, want <10%%", overhead*100)
	}
}

// Fig 14a: proactive scale-down overhead is <2% of any realistic prefill.
func TestFig14aScaleDownOverheadTiny(t *testing.T) {
	cm := newCM()
	for _, lens := range [][]int{lensRepeat(10, 1024), lensRepeat(1_000, 64), {200_000}} {
		base := cm.PrefillIterTime(lens, 4, 2, nvlink())
		overhead := float64(cm.ScaleDownOverhead()) / float64(base)
		if overhead > 0.02 {
			t.Fatalf("lens %v: scale-down overhead %.2f%% > 2%%", lens[:1], overhead*100)
		}
	}
}

// Reactive migration of a long request costs far more than a decode step
// (§4.1) — the motivation for proactive migration.
func TestReactiveMigrationDwarfsDecodeStep(t *testing.T) {
	cm := newCM()
	mig := cm.ReactiveMigrationTime(200_000, nvlink())
	dec := cm.DecodeIterTime(8, 8*4096, 1, 2, 1, nvlink())
	if mig < 5*dec {
		t.Fatalf("migration %v should dwarf decode step %v", mig, dec)
	}
}

func TestPrefillMonotonicInLength(t *testing.T) {
	cm := newCM()
	prev := time.Duration(0)
	for _, l := range []int{100, 1_000, 10_000, 100_000, 500_000} {
		d := cm.PrefillIterTime([]int{l}, 2, 4, nvlink())
		if d <= prev {
			t.Fatalf("prefill time not increasing at len %d: %v <= %v", l, d, prev)
		}
		prev = d
	}
}

func TestDecodeMonotonicInBatchAndKV(t *testing.T) {
	cm := newCM()
	if cm.DecodeIterTime(64, 64*1000, 2, 2, 2, nvlink()) <= cm.DecodeIterTime(8, 8*1000, 2, 2, 2, nvlink()) {
		t.Fatal("decode time not increasing in batch size")
	}
	if cm.DecodeIterTime(8, 8*100_000, 2, 2, 2, nvlink()) <= cm.DecodeIterTime(8, 8*100, 2, 2, 2, nvlink()) {
		t.Fatal("decode time not increasing in KV length")
	}
}

func TestEmptyAndZeroInputs(t *testing.T) {
	cm := newCM()
	if cm.PrefillIterTime(nil, 1, 8, nvlink()) != 0 {
		t.Fatal("empty prefill batch should be free")
	}
	if cm.DecodeIterTime(0, 0, 1, 8, 1, nvlink()) != 0 {
		t.Fatal("empty decode batch should be free")
	}
	if cm.ReactiveMigrationTime(0, nvlink()) != 0 {
		t.Fatal("zero-token migration should be free")
	}
}

func TestInvalidParallelismPanics(t *testing.T) {
	cm := newCM()
	defer func() {
		if recover() == nil {
			t.Fatal("sp=0 did not panic")
		}
	}()
	cm.PrefillIterTime([]int{10}, 0, 8, nvlink())
}

func TestIBSlowerThanNVLinkForRing(t *testing.T) {
	cm := newCM()
	lens := []int{400_000}
	intra := cm.PrefillIterTime(lens, 8, 1, nvlink())
	inter := cm.PrefillIterTime(lens, 8, 1, ib())
	if inter < intra {
		t.Fatalf("IB ring %v should not beat NVLink ring %v", inter, intra)
	}
}

func TestChunkIterTime(t *testing.T) {
	cm := newCM()
	// A chunk deep into a long context costs more than the same chunk at
	// the start (attention over the context).
	early := cm.ChunkIterTime(2048, 0, 0, 0, 8)
	late := cm.ChunkIterTime(2048, 200_000, 0, 0, 8)
	if late <= early {
		t.Fatalf("late chunk %v should exceed early chunk %v", late, early)
	}
	// Fusing a decode batch adds time.
	fused := cm.ChunkIterTime(2048, 0, 32, 32*2000, 8)
	if fused <= early {
		t.Fatal("fused decode batch should add time")
	}
	// Chunked prefill of a long input costs more in total than one-shot
	// prefill (the Fig 10 SplitFuse inefficiency).
	var chunked time.Duration
	total := 100_000
	chunk := 2048
	for done := 0; done < total; done += chunk {
		c := chunk
		if done+c > total {
			c = total - done
		}
		chunked += cm.ChunkIterTime(c, done, 0, 0, 8)
	}
	oneShot := cm.PrefillIterTime([]int{total}, 1, 8, nvlink())
	if chunked <= oneShot {
		t.Fatalf("chunked total %v should exceed one-shot %v", chunked, oneShot)
	}
}

// --- analytical model & fitting ---

func TestCoeffsPredict(t *testing.T) {
	c := Coeffs{Alpha: 0.01, Beta: 1e-6, Gamma: 1e-12}
	got := c.Predict([]int{1000, 2000})
	want := 0.01 + 1e-6*3000 + 1e-12*(1e6+4e6)
	if math.Abs(got.Seconds()-want) > 1e-9 {
		t.Fatalf("Predict = %v, want %vs", got, want)
	}
	neg := Coeffs{Alpha: -1}
	if neg.Predict([]int{1}) != 0 {
		t.Fatal("negative prediction should clamp to 0")
	}
}

func TestFitPrefillRecoversExactQuadratic(t *testing.T) {
	truth := Coeffs{Alpha: 0.02, Beta: 2e-7, Gamma: 3e-13}
	var samples []PrefillSample
	for _, l := range []int{100, 1000, 5000, 20_000, 100_000, 300_000} {
		for _, bs := range []int{1, 2, 4} {
			lens := lensRepeat(l, bs)
			samples = append(samples, PrefillSample{Lens: lens, Measured: truth.Predict(lens)})
		}
	}
	got, err := FitPrefill(samples)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.Alpha, truth.Alpha) > 1e-5 || relErr(got.Beta, truth.Beta) > 1e-5 || relErr(got.Gamma, truth.Gamma) > 1e-5 {
		t.Fatalf("fit %+v, want %+v", got, truth)
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestFitPrefillTooFewSamples(t *testing.T) {
	_, err := FitPrefill([]PrefillSample{{Lens: []int{1}, Measured: 1}})
	if err == nil {
		t.Fatal("fit with 1 sample succeeded")
	}
}

func TestFitPrefillSingular(t *testing.T) {
	// All-identical samples make the system singular.
	s := PrefillSample{Lens: []int{100}, Measured: time.Millisecond}
	_, err := FitPrefill([]PrefillSample{s, s, s, s})
	if err == nil {
		t.Fatal("singular fit succeeded")
	}
}

func TestFitDecodeRecoversLinearModel(t *testing.T) {
	truth := DecodeCoeffs{Alpha: 0.004, BetaBS: 2e-5, GammaKV: 3e-9}
	var samples []DecodeSample
	for _, bs := range []int{1, 8, 64, 512} {
		for _, kv := range []int{1000, 50_000, 400_000} {
			samples = append(samples, DecodeSample{BS: bs, SumKV: kv, Measured: truth.Predict(bs, kv)})
		}
	}
	got, err := FitDecode(samples)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.Alpha, truth.Alpha) > 1e-5 || relErr(got.BetaBS, truth.BetaBS) > 1e-5 || relErr(got.GammaKV, truth.GammaKV) > 1e-5 {
		t.Fatalf("fit %+v, want %+v", got, truth)
	}
}

// Fig 15: the fitted analytical model predicts ground truth within ~10%
// across strategies SP2TP4, SP4TP2, SP8TP1 for batches up to 512K tokens.
func TestFig15AnalyticalModelAccuracy(t *testing.T) {
	cm := newCM()
	prof := &Profiler{CM: cm, Link: nvlink(), Jitter: 0.01, Seed: 1}
	sib := NewSIB()
	for _, st := range []Strategy{{2, 4}, {4, 2}, {8, 1}} {
		prof.ProfilePrefill(sib, st, DefaultPrefillGrid(512_000))
		coeffs, err := sib.PrefillCoeffs(st)
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate on points *between* grid points.
		for _, bs := range []int{1, 2, 4, 8} {
			for _, l := range []int{700, 3000, 30_000, 80_000, 150_000, 400_000} {
				if bs*l > 512_000 {
					continue
				}
				lens := lensRepeat(l, bs)
				pred := coeffs.Predict(lens).Seconds()
				real := cm.PrefillIterTime(lens, st.SP, st.TP, nvlink()).Seconds()
				if dev := relErr(pred, real); dev > 0.15 {
					t.Fatalf("strategy %s bs=%d len=%d: deviation %.1f%% (pred %.3fs real %.3fs)",
						st.Key(), bs, l, dev*100, pred, real)
				}
			}
		}
	}
}

func TestSIBRoundTripJSON(t *testing.T) {
	cm := newCM()
	prof := &Profiler{CM: cm, Link: nvlink(), Jitter: 0.02, Seed: 9}
	sib := NewSIB()
	st := Strategy{SP: 2, TP: 4}
	prof.ProfilePrefill(sib, st, DefaultPrefillGrid(100_000))
	prof.ProfileDecode(sib, st, 1)
	prof.CalibrateThresholds(sib, st)

	path := t.TempDir() + "/sib.json"
	if err := sib.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Prefill[st.Key()]) != len(sib.Prefill[st.Key()]) {
		t.Fatalf("prefill samples %d, want %d", len(loaded.Prefill[st.Key()]), len(sib.Prefill[st.Key()]))
	}
	if loaded.DecodeBSThreshold != sib.DecodeBSThreshold {
		t.Fatal("threshold lost in round trip")
	}
	c1, err := sib.PrefillCoeffs(st)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := loaded.PrefillCoeffs(st)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(c1.Beta, c2.Beta) > 1e-9 {
		t.Fatal("coefficients differ after round trip")
	}
}

func TestSIBStrategiesSorted(t *testing.T) {
	sib := NewSIB()
	sib.AddPrefill(Strategy{4, 2}, PrefillSample{Lens: []int{1}, Measured: 1})
	sib.AddPrefill(Strategy{2, 4}, PrefillSample{Lens: []int{1}, Measured: 1})
	keys := sib.Strategies()
	if len(keys) != 2 || keys[0] != "sp2tp4" || keys[1] != "sp4tp2" {
		t.Fatalf("Strategies() = %v", keys)
	}
}

func TestSIBMissingStrategyErrors(t *testing.T) {
	sib := NewSIB()
	if _, err := sib.PrefillCoeffs(Strategy{2, 2}); err == nil {
		t.Fatal("fit of unprofiled strategy succeeded")
	}
	if _, err := sib.DecodeCoeffs(Strategy{2, 2}); err == nil {
		t.Fatal("decode fit of unprofiled strategy succeeded")
	}
}

func TestCalibrateThresholds(t *testing.T) {
	cm := newCM()
	prof := &Profiler{CM: cm, Link: nvlink(), Seed: 1}
	sib := NewSIB()
	prof.CalibrateThresholds(sib, Strategy{SP: 4, TP: 2})
	if sib.DecodeBSThreshold < 16 || sib.DecodeBSThreshold > 2048 {
		t.Fatalf("decode BS threshold = %d, want a plausible compute-bound point", sib.DecodeBSThreshold)
	}
	if sib.PrefillTippingPoint <= 0 {
		t.Fatal("tipping point not set")
	}
}

func TestProfilerDeterministic(t *testing.T) {
	cm := newCM()
	mk := func() *SIB {
		sib := NewSIB()
		p := &Profiler{CM: cm, Link: nvlink(), Jitter: 0.05, Seed: 33}
		p.ProfilePrefill(sib, Strategy{2, 4}, DefaultPrefillGrid(50_000))
		return sib
	}
	a, b := mk(), mk()
	sa, sb := a.Prefill["sp2tp4"], b.Prefill["sp2tp4"]
	for i := range sa {
		if sa[i].Measured != sb[i].Measured {
			t.Fatal("profiler not deterministic")
		}
	}
}

func TestStrategyKey(t *testing.T) {
	if (Strategy{SP: 4, TP: 2}).Key() != "sp4tp2" {
		t.Fatal("key format changed")
	}
	if (Strategy{SP: 4, TP: 2}).GPUs() != 8 {
		t.Fatal("GPUs wrong")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	b := []float64{5, 10, 7}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify residual against a fresh copy.
	a2 := [][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	b2 := []float64{5, 10, 7}
	for i := range a2 {
		var s float64
		for j := range x {
			s += a2[i][j] * x[j]
		}
		if math.Abs(s-b2[i]) > 1e-9 {
			t.Fatalf("residual row %d: %v vs %v", i, s, b2[i])
		}
	}
}

// A DecodeStep's At must return exactly DecodeIterTime's duration: fused
// decode windows time their boundaries with At while unfused engines call
// DecodeIterTime, and the two runs must be indistinguishable. The grid
// takes every branch: empty and non-empty batches, one and several
// instances (with and without tensor parallelism), every masters clamp,
// both signs of the query-exchange excess and both link kinds.
func TestDecodeStepMatchesDecodeIterTime(t *testing.T) {
	cm := newCM()
	links := []cluster.Link{nvlink(), ib()}
	var clampLow, clampSP, clampBS, excessPos, excessNeg int
	for _, bs := range []int{-1, 0, 1, 3, 64, 1_000} {
		for _, sp := range []int{1, 2, 4, 8} {
			for _, tp := range []int{1, 2, 8} {
				for _, masters := range []int{0, 1, 2, 5, 9, 2_000} {
					for _, link := range links {
						step := cm.DecodeStep(bs, sp, tp, masters, link)
						if bs > 0 {
							switch {
							case masters < 1:
								clampLow++
							case masters > sp:
								clampSP++
							}
							if masters > bs && masters <= sp {
								clampBS++
							}
						}
						for _, kv := range []int{0, 1, 1_000, 100_000, 10_000_000} {
							// The fused window's boundary sequence, too.
							for i := 0; i < 3; i++ {
								sumKV := kv + i*max(bs, 0)
								got := step.At(sumKV)
								want := cm.DecodeIterTime(bs, sumKV, sp, tp, masters, link)
								if got != want {
									t.Fatalf("bs=%d sp=%d tp=%d masters=%d link=%v sumKV=%d: At %v, DecodeIterTime %v",
										bs, sp, tp, masters, link, sumKV, got, want)
								}
								if !step.multi {
									continue
								}
								tAttn := maxf(float64(sumKV)*step.kvBytesPerTok/step.kvDenom,
									step.attnPerPair*float64(sumKV)/step.attnDenom)
								if step.tComm > tAttn {
									excessPos++
								} else if step.tComm < tAttn {
									excessNeg++
								}
							}
						}
					}
				}
			}
		}
	}
	if clampLow == 0 || clampSP == 0 || clampBS == 0 || excessPos == 0 || excessNeg == 0 {
		t.Fatalf("grid missed a branch: masters<1 %d, masters>sp %d, masters>bs %d, tComm>tAttn %d, tComm<tAttn %d",
			clampLow, clampSP, clampBS, excessPos, excessNeg)
	}
}

func TestDecodeStepInvalidParallelismPanics(t *testing.T) {
	cm := newCM()
	for _, p := range []struct{ sp, tp int }{{0, 2}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DecodeStep sp=%d tp=%d did not panic", p.sp, p.tp)
				}
			}()
			cm.DecodeStep(4, p.sp, p.tp, 1, nvlink())
		}()
	}
	// An empty batch is free at any parallelism, as in DecodeIterTime.
	step := cm.DecodeStep(0, 0, 0, 0, nvlink())
	if step.At(1_000) != 0 || cm.DecodeIterTime(0, 1_000, 0, 0, 0, nvlink()) != 0 {
		t.Fatal("empty decode batch should be free")
	}
}
