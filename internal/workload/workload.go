// Package workload generates the request traces of the paper's §7.1:
// request arrivals follow a Poisson process, and (input length, output
// length) pairs are sampled from synthetic equivalents of the four
// evaluation datasets.
//
// The real datasets are conversation/benchmark dumps we cannot ship; what
// the evaluation actually consumes from them is the joint length
// distribution, which the paper characterizes precisely enough to
// reproduce: ShareGPT spans 4-2.3K tokens (chat: short prompts, longer
// generations), L-Eval 2.7K-210.5K (long-document QA/summarization: long
// prompts, short answers), LV-Eval 15.1K-497.3K (the longest benchmark),
// and Mixed samples the three with equal probability. Log-normal bodies
// with hard range clamps reproduce the heavy right tails such corpora
// exhibit. Fig 12 additionally resamples Mixed through a Zipf rank
// distribution to sweep skew.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Entry is one request's length pair, plus optional session metadata for
// multi-turn traces (zero values describe the stateless single-shot
// requests the paper's §7 traces consist of).
type Entry struct {
	InputLen  int
	OutputLen int

	// Session metadata for multi-turn conversations (see SessionTrace).
	// The input of a session request decomposes head-first as
	//
	//	[ shared system prompt | conversation history | new user turn ]
	//	  `-- SharedLen --'
	//	  `-------------- PrefixLen --------------'
	//
	// so PrefixLen tokens are recomputable-free on a replica that still
	// holds the session's previous-turn KV, and SharedLen tokens on any
	// replica that has served the same PromptGroup.
	SessionID   int64 // 1-based session identity; 0 = stateless request
	Turn        int   // 0-based turn index within the session
	PromptGroup int   // shared-system-prompt family; 0 = none
	SharedLen   int   // head tokens shared by every session of PromptGroup
	PrefixLen   int   // head tokens reusable from this session's previous turn

	// Blocks is the content-addressed block-hash chain of the request's
	// token stream at BlockTokens granularity, covering InputLen+OutputLen
	// tokens (the conversation state after the reply; the trailing partial
	// block is dropped). Hash k covers tokens [k*BlockTokens,
	// (k+1)*BlockTokens) and folds in hash k-1, so a single hash identifies
	// its entire prefix — the key property radix prefix-KV caches index on.
	// Two sessions sharing content (a system prompt, a branched
	// conversation prefix) emit identical leading hashes and diverge at the
	// first block containing distinct tokens. nil for stateless requests.
	//
	// Note: Blocks makes Entry non-comparable; compare entries with
	// reflect.DeepEqual or field-by-field.
	Blocks []uint64
}

// Dataset samples request length pairs.
type Dataset interface {
	Name() string
	Sample(rng *rand.Rand) Entry
}

// logNormalClamped draws from exp(N(ln(median), sigma)) clamped to
// [lo, hi].
func logNormalClamped(rng *rand.Rand, median float64, sigma float64, lo, hi int) int {
	v := int(math.Round(median * math.Exp(rng.NormFloat64()*sigma)))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

type lengthDist struct {
	median float64
	sigma  float64
	lo, hi int
}

func (d lengthDist) sample(rng *rand.Rand) int {
	return logNormalClamped(rng, d.median, d.sigma, d.lo, d.hi)
}

type synthetic struct {
	name   string
	input  lengthDist
	output lengthDist
}

func (s *synthetic) Name() string { return s.name }
func (s *synthetic) Sample(rng *rand.Rand) Entry {
	return Entry{InputLen: s.input.sample(rng), OutputLen: s.output.sample(rng)}
}

// ShareGPT returns the chat workload: inputs 4-2.3K tokens, relatively long
// outputs. Short prompts with long generations are what make elastic
// scale-*up* matter (Fig 13).
func ShareGPT() Dataset {
	return &synthetic{
		name:   "ShareGPT",
		input:  lengthDist{median: 320, sigma: 1.1, lo: 4, hi: 2300},
		output: lengthDist{median: 220, sigma: 0.9, lo: 4, hi: 2000},
	}
}

// ShareGPTLong returns the generation-heavy chat variant used for the
// elastic scale-up ablation (Fig 13): ShareGPT prompts with long
// generations, the regime the paper motivates scale-up with ("requests
// from ShareGPT have a relatively short input length and long output
// length, which requires frequent scaling up as the output length
// continuously increases"). Our simulated decode path is relatively faster
// than the paper's testbed, so reaching the same decode-bound operating
// point needs the longer-generation end of the chat distribution.
func ShareGPTLong() Dataset {
	return &synthetic{
		name:   "ShareGPT-long",
		input:  lengthDist{median: 320, sigma: 1.1, lo: 4, hi: 2300},
		output: lengthDist{median: 1200, sigma: 0.6, lo: 64, hi: 4000},
	}
}

// LEval returns the long-document workload: inputs 2.7K-210.5K tokens,
// short answers.
func LEval() Dataset {
	return &synthetic{
		name:   "L-Eval",
		input:  lengthDist{median: 18_000, sigma: 1.0, lo: 2_700, hi: 210_500},
		output: lengthDist{median: 180, sigma: 0.8, lo: 16, hi: 1_024},
	}
}

// LVEval returns the longest-context workload: inputs 15.1K-497.3K tokens.
func LVEval() Dataset {
	return &synthetic{
		name:   "LV-Eval",
		input:  lengthDist{median: 110_000, sigma: 0.85, lo: 15_100, hi: 497_300},
		output: lengthDist{median: 120, sigma: 0.7, lo: 16, hi: 512},
	}
}

// Mixed samples ShareGPT, L-Eval and LV-Eval with equal probability
// ("the sampling probability of each dataset is the same", §7.1).
func Mixed() Dataset {
	return &mixed{parts: []Dataset{ShareGPT(), LEval(), LVEval()}}
}

type mixed struct {
	parts []Dataset
}

// DatasetByName resolves a dataset as the CLIs spell it, ignoring case:
// sharegpt, sharegpt-long, leval (or l-eval), lveval (or lv-eval) and mixed.
func DatasetByName(name string) (Dataset, error) {
	switch strings.ToLower(name) {
	case "sharegpt":
		return ShareGPT(), nil
	case "sharegpt-long":
		return ShareGPTLong(), nil
	case "leval", "l-eval":
		return LEval(), nil
	case "lveval", "lv-eval":
		return LVEval(), nil
	case "mixed":
		return Mixed(), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

func (m *mixed) Name() string { return "Mixed" }
func (m *mixed) Sample(rng *rand.Rand) Entry {
	return m.parts[rng.Intn(len(m.parts))].Sample(rng)
}

// Zipf resamples a base dataset's *input-length distribution* through a
// Zipf rank law: the empirical length quantiles are ranked shortest first
// and rank k is drawn with probability proportional to (k+1)^-s. Larger s
// skews the workload toward short requests; s around 1 keeps substantial
// long-tail mass — the knob Fig 12 sweeps (1.0, 1.2, 1.4). MaxLen caps
// lengths (Fig 12 caps at 200K so the replicated baseline can serve every
// request). Output lengths are drawn from the base dataset unchanged.
type Zipf struct {
	name      string
	base      Dataset
	quantiles []int     // ascending empirical input-length quantiles
	cdf       []float64 // cumulative rank weights
	maxLen    int
}

// NewZipf builds a Zipf-skewed view of base with parameter s (> 0).
func NewZipf(base Dataset, s float64, maxLen int, seed int64) *Zipf {
	if s <= 0 {
		panic(fmt.Sprintf("workload: zipf s must be > 0, got %v", s))
	}
	const nq = 2048
	rng := rand.New(rand.NewSource(seed))
	q := make([]int, 0, nq)
	for i := 0; i < nq; i++ {
		l := base.Sample(rng).InputLen
		if l > maxLen {
			l = maxLen
		}
		q = append(q, l)
	}
	sort.Ints(q)
	cdf := make([]float64, nq)
	sum := 0.0
	for k := 0; k < nq; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{
		name:      fmt.Sprintf("%s-zipf%.1f", base.Name(), s),
		base:      base,
		quantiles: q,
		cdf:       cdf,
		maxLen:    maxLen,
	}
}

func (z *Zipf) Name() string { return z.name }

// Sample draws a Zipf rank by inverse-CDF lookup and maps it to the
// corresponding input-length quantile.
func (z *Zipf) Sample(rng *rand.Rand) Entry {
	u := rng.Float64()
	rank := sort.SearchFloat64s(z.cdf, u)
	if rank >= len(z.quantiles) {
		rank = len(z.quantiles) - 1
	}
	out := z.base.Sample(rng).OutputLen
	if out > z.maxLen {
		out = z.maxLen
	}
	return Entry{InputLen: z.quantiles[rank], OutputLen: out}
}

// TimedRequest is one request in a trace.
type TimedRequest struct {
	Entry
	Arrival time.Duration // offset from trace start
}

// PoissonTrace draws n requests from ds with exponentially distributed
// inter-arrival gaps at `rate` requests/second. Deterministic in seed.
func PoissonTrace(ds Dataset, rate float64, n int, seed int64) []TimedRequest {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: non-positive rate %v", rate))
	}
	rng := rand.New(rand.NewSource(seed))
	trace := make([]TimedRequest, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		trace = append(trace, TimedRequest{
			Entry:   ds.Sample(rng),
			Arrival: time.Duration(t * 1e9),
		})
	}
	return trace
}

// Stats summarizes a set of entries for calibration tests and reports.
type Stats struct {
	N                  int
	MinInput, MaxInput int
	MeanInput          float64
	MeanOutput         float64
	TotalTokens        int64
}

// Summarize computes Stats over entries.
func Summarize(entries []Entry) Stats {
	s := Stats{N: len(entries)}
	if len(entries) == 0 {
		return s
	}
	s.MinInput = entries[0].InputLen
	for _, e := range entries {
		if e.InputLen < s.MinInput {
			s.MinInput = e.InputLen
		}
		if e.InputLen > s.MaxInput {
			s.MaxInput = e.InputLen
		}
		s.MeanInput += float64(e.InputLen)
		s.MeanOutput += float64(e.OutputLen)
		s.TotalTokens += int64(e.InputLen) + int64(e.OutputLen)
	}
	s.MeanInput /= float64(len(entries))
	s.MeanOutput /= float64(len(entries))
	return s
}
