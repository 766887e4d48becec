// Package costmodel computes simulated iteration times for LLM serving on
// the cluster substrate: a roofline-style physical model (compute FLOPs vs
// memory traffic vs interconnect traffic) calibrated against the anchor
// measurements the paper reports, plus the paper's analytical model (Eq 7)
// with SIB-backed least-squares fitting used by the LoongServe global
// manager at scheduling time.
//
// Two distinct layers live here on purpose:
//
//   - The *ground truth* layer (PrefillIterTime, DecodeIterTime,
//     ChunkIterTime) plays the role of the GPUs: every serving engine in the
//     simulator advances time by these durations.
//   - The *estimator* layer (Coeffs, SIB) plays the role of the paper's
//     §5.5 analytical model: the LoongServe scheduler never reads ground
//     truth directly; it fits T_p(R) = α + β·Σlen + γ·Σlen² from profiled
//     samples and plans with the fit, exactly as the real system does.
//     Fig 15 measures the gap between the two.
package costmodel

import (
	"fmt"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/model"
)

// CostModel computes ground-truth iteration times for one model on one
// hardware generation.
//
// The derived model constants (FLOPs per token, weight bytes, KV bytes) are
// precomputed once: iteration-time methods sit on every engine's hot path,
// where re-deriving them per call is measurable. A CostModel is not safe
// for concurrent use by multiple goroutines; parallel experiment arms each
// build their own.
type CostModel struct {
	M  model.Config
	HW cluster.Hardware

	// Derived constants, filled by derive(). ok guards lazy initialization
	// for zero-value construction; New initializes eagerly.
	derived struct {
		ok             bool
		flopsPerTok    float64 // dense FLOPs per token
		attnPerPair    float64 // attention FLOPs per (q, k) pair
		kvBytesPerTok  float64
		weightBytes    float64
		tpVolumeFactor float64 // 2·Layers·Hidden·BytesParam
		layers         float64
		nvLatSec       float64
		prefillOvhSec  float64
		decodeOvhSec   float64
		chunkOvhSec    float64

		// Single-entry memo of the tp-dependent all-reduce constants; tp is
		// fixed per engine, so this hits on every call after the first. The
		// factored forms are chosen to round identically to the original
		// expression (exact integer factors combine without extra rounding).
		tpMemoTP  int
		tpMemoMul float64 // 2·(tp-1), exact
		tpMemoLat float64 // 2·Layers·ceilLog2(tp)·NVLinkLatency
	}
}

// New returns a cost model; it panics on an invalid model config since that
// is a programming error, not an input error.
func New(m model.Config, hw cluster.Hardware) *CostModel {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	c := &CostModel{M: m, HW: hw}
	c.derive()
	return c
}

// derive precomputes the per-call constants of the iteration-time formulas.
func (c *CostModel) derive() {
	d := &c.derived
	d.flopsPerTok = c.M.FLOPsPerToken()
	d.attnPerPair = c.M.AttnFLOPsPerTokenPair()
	d.kvBytesPerTok = float64(c.M.KVBytesPerToken())
	d.weightBytes = float64(c.M.WeightBytes())
	d.tpVolumeFactor = 2 * float64(c.M.Layers) * float64(c.M.Hidden) * float64(c.M.BytesParam)
	d.layers = float64(c.M.Layers)
	d.nvLatSec = c.HW.NVLinkLatency.Seconds()
	d.prefillOvhSec = c.HW.PrefillOverhead.Seconds()
	d.decodeOvhSec = c.HW.DecodeOverhead.Seconds()
	d.chunkOvhSec = c.HW.ChunkOverhead.Seconds()
	d.ok = true
}

// ensure covers CostModels built as composite literals (tests); New-built
// models take the single predicted branch.
func (c *CostModel) ensure() {
	if !c.derived.ok {
		c.derive()
	}
}

func ceilLog2(n int) int {
	l := 0
	for p := 1; p < n; p <<= 1 {
		l++
	}
	return l
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func durSec(s float64) time.Duration { return time.Duration(s * 1e9) }

// weightReadSec returns the time for one instance's GPUs to stream the
// weight replica from HBM once — the memory-bound floor of an iteration.
func (c *CostModel) weightReadSec(tp int) float64 {
	c.ensure()
	return c.derived.weightBytes / (float64(tp) * c.HW.MemBandwidth)
}

// tpCommSec returns tensor-parallel all-reduce time for `tokens` activation
// rows within one instance of tp GPUs over NVLink: two all-reduces per
// layer, ring all-reduce volume 2(tp-1)/tp, plus per-collective latency.
func (c *CostModel) tpCommSec(tokens float64, tp int) float64 {
	if tp <= 1 {
		return 0
	}
	d := &c.derived
	if tp != d.tpMemoTP {
		d.tpMemoTP = tp
		d.tpMemoMul = 2 * float64(tp-1)
		d.tpMemoLat = 2 * d.layers * float64(ceilLog2(tp)) * d.nvLatSec
	}
	bytes := d.tpVolumeFactor * tokens * d.tpMemoMul / float64(tp)
	return bytes/c.HW.NVLinkBandwidth + d.tpMemoLat
}

// PrefillIterTime returns the duration of one prefill iteration for a batch
// of fresh requests with the given input lengths, executed by a parallel
// group of sp instances (tensor parallelism tp inside each), connected by
// link (the group's bottleneck channel, relevant when sp > 1).
//
// Shape properties this reproduces:
//   - long inputs scale nearly linearly with total GPUs (Fig 2 top);
//   - short inputs are dominated by the fixed overhead, so extra GPUs are
//     wasted (Fig 2 top, BS=1 Len=100);
//   - SPxTP combinations match or slightly beat pure TP on long inputs
//     because ring traffic overlaps with attention compute while
//     all-reduce traffic shrinks (Fig 3).
func (c *CostModel) PrefillIterTime(lens []int, sp, tp int, link cluster.Link) time.Duration {
	if len(lens) == 0 {
		return 0
	}
	if sp < 1 || tp < 1 {
		panic(fmt.Sprintf("costmodel: invalid parallelism sp=%d tp=%d", sp, tp))
	}
	c.ensure()
	d := &c.derived
	g := float64(sp * tp)
	var sumLen, sumSq float64
	for _, l := range lens {
		sumLen += float64(l)
		sumSq += float64(l) * float64(l)
	}

	tLin := d.flopsPerTok * sumLen / (g * c.HW.PeakFLOPS * c.HW.MFUPrefill)
	// Causal attention touches len^2/2 pairs; striped attention balances
	// this evenly over instances.
	tAttn := d.attnPerPair * sumSq / 2 / (g * c.HW.PeakFLOPS * c.HW.MFUAttention)
	tWeights := c.weightReadSec(tp)

	// Sequence-parallel ring: the whole KV volume circulates (sp-1)/sp
	// through each instance, overlapped with attention compute; per-round
	// synchronization latency is not hidden.
	var tRing, ringLat float64
	if sp > 1 {
		ringBytes := sumLen * d.kvBytesPerTok * float64(sp-1) / float64(sp)
		tRing = ringBytes / link.Bandwidth
		ringLat = d.layers * float64(sp-1) * link.Latency.Seconds()
	}
	tTP := c.tpCommSec(sumLen/float64(sp), tp)

	total := d.prefillOvhSec +
		maxf(tLin, tWeights) +
		maxf(tAttn, tRing) +
		tTP + ringLat
	return durSec(total)
}

// DecodeIterTime returns the duration of one decoding iteration: bs
// requests each generating one token, with sumKV total resident KV tokens
// spread over the group, sp instances of tp GPUs, and `masters` master
// instances running the dense (FFN/projection) layers (§4.2).
//
// Shape properties:
//   - small batches are bound by the weight read of a single instance, so
//     decoding scales poorly with more GPUs (Fig 2 bottom);
//   - large batches become compute bound and split across masters, giving
//     multi-master decoding its ~2x win at BS=1024 (Fig 14b);
//   - with one master and a large batch, dense layers serialize on the
//     master — the single-master limitation the paper calls out.
func (c *CostModel) DecodeIterTime(bs, sumKV, sp, tp, masters int, link cluster.Link) time.Duration {
	if bs <= 0 {
		return 0
	}
	if sp < 1 || tp < 1 {
		panic(fmt.Sprintf("costmodel: invalid parallelism sp=%d tp=%d", sp, tp))
	}
	if masters < 1 {
		masters = 1
	}
	if masters > sp {
		masters = sp
	}
	if masters > bs {
		masters = bs
	}
	c.ensure()
	d := &c.derived
	g := float64(sp * tp)

	// Dense layers on master instances, batch split across masters.
	tLin := d.flopsPerTok * float64(bs) / (float64(masters*tp) * c.HW.PeakFLOPS * c.HW.MFUDecode)
	tWeights := c.weightReadSec(tp)

	// Attention: reading resident KV dominates; it is spread over the whole
	// group's HBM.
	tKVRead := float64(sumKV) * d.kvBytesPerTok / (g * c.HW.MemBandwidth)
	tAttnFLOPs := d.attnPerPair * float64(sumKV) / (g * c.HW.PeakFLOPS * c.HW.MFUAttention)
	tAttn := maxf(tKVRead, tAttnFLOPs)

	// Query/partial-result exchange between instances, overlapped with
	// local attention; per-layer synchronization latency is not hidden.
	var commLat, tCommExcess float64
	if sp > 1 {
		qBytes := d.tpVolumeFactor * float64(bs) * float64(sp-1) / float64(sp)
		tComm := qBytes / link.Bandwidth
		tCommExcess = maxf(0, tComm-tAttn)
		commLat = 2 * d.layers * link.Latency.Seconds()
	}
	tTP := c.tpCommSec(float64(bs)/float64(masters), tp)

	total := d.decodeOvhSec +
		maxf(tLin, tWeights) +
		tAttn + tCommExcess +
		tTP + commLat
	return durSec(total)
}

// DecodeStep is DecodeIterTime with its batch, group and link fixed: every
// term that does not depend on the resident KV is computed once, and At
// supplies the rest. A fused decode window costs one iteration per
// boundary at a KV count that grows by the batch size each time, so it
// builds one step per window instead of re-deriving the fixed terms at
// every boundary.
//
// At performs DecodeIterTime's remaining floating-point operations in the
// same order, on the same precomputed operands, so At(sumKV) equals
// DecodeIterTime(bs, sumKV, sp, tp, masters, link) bit for bit.
type DecodeStep struct {
	zero bool // bs <= 0: every iteration takes no time

	// base is decodeOvhSec + max(tLin, tWeights), the sum's first two
	// terms; tTP and commLat are its last two.
	base, tTP, commLat float64

	// Attention's two bounds are kvBytesPerTok·sumKV/kvDenom (HBM reads)
	// and attnPerPair·sumKV/attnDenom (FLOPs).
	kvBytesPerTok, kvDenom float64
	attnPerPair, attnDenom float64
	multi                  bool    // sp > 1: queries cross instances
	tComm                  float64 // query exchange time, overlapped with attention
}

// DecodeStep returns the decode iteration cost of bs requests on sp
// instances of tp GPUs with the given masters and link, as a function of
// the resident KV. It panics on the parallelism DecodeIterTime rejects.
func (c *CostModel) DecodeStep(bs, sp, tp, masters int, link cluster.Link) DecodeStep {
	if bs <= 0 {
		return DecodeStep{zero: true}
	}
	if sp < 1 || tp < 1 {
		panic(fmt.Sprintf("costmodel: invalid parallelism sp=%d tp=%d", sp, tp))
	}
	if masters < 1 {
		masters = 1
	}
	if masters > sp {
		masters = sp
	}
	if masters > bs {
		masters = bs
	}
	c.ensure()
	d := &c.derived
	g := float64(sp * tp)

	tLin := d.flopsPerTok * float64(bs) / (float64(masters*tp) * c.HW.PeakFLOPS * c.HW.MFUDecode)
	tWeights := c.weightReadSec(tp)
	s := DecodeStep{
		base:          d.decodeOvhSec + maxf(tLin, tWeights),
		kvBytesPerTok: d.kvBytesPerTok,
		kvDenom:       g * c.HW.MemBandwidth,
		attnPerPair:   d.attnPerPair,
		attnDenom:     g * c.HW.PeakFLOPS * c.HW.MFUAttention,
	}
	if sp > 1 {
		qBytes := d.tpVolumeFactor * float64(bs) * float64(sp-1) / float64(sp)
		s.multi = true
		s.tComm = qBytes / link.Bandwidth
		s.commLat = 2 * d.layers * link.Latency.Seconds()
	}
	s.tTP = c.tpCommSec(float64(bs)/float64(masters), tp)
	return s
}

// At returns the duration of one iteration with sumKV resident KV tokens.
func (s *DecodeStep) At(sumKV int) time.Duration {
	if s.zero {
		return 0
	}
	tKVRead := float64(sumKV) * s.kvBytesPerTok / s.kvDenom
	tAttnFLOPs := s.attnPerPair * float64(sumKV) / s.attnDenom
	tAttn := maxf(tKVRead, tAttnFLOPs)
	var tCommExcess float64
	if s.multi {
		tCommExcess = maxf(0, s.tComm-tAttn)
	}
	total := s.base +
		tAttn + tCommExcess +
		s.tTP + s.commLat
	return durSec(total)
}

// ChunkIterTime returns the duration of one chunked-prefill (SplitFuse /
// SARATHI / DeepSpeed-FastGen) iteration on a single instance of tp GPUs:
// `chunk` new prompt tokens attending over ctx already-cached tokens, fused
// with a decode batch of decodeBS requests holding decodeKV cached tokens.
func (c *CostModel) ChunkIterTime(chunk, ctx, decodeBS, decodeKV, tp int) time.Duration {
	c.ensure()
	d := &c.derived
	g := float64(tp)
	newTokens := float64(chunk + decodeBS)
	tLin := d.flopsPerTok * newTokens / (g * c.HW.PeakFLOPS * c.HW.MFUPrefill)
	tWeights := c.weightReadSec(tp)

	// Chunk attention: each of the chunk tokens attends over ctx previous
	// tokens plus the causal half of the chunk itself.
	pairs := float64(chunk)*float64(ctx) + float64(chunk)*float64(chunk)/2
	tAttn := d.attnPerPair * pairs / (g * c.HW.PeakFLOPS * c.HW.MFUAttention)
	// Decode attention within the fused batch.
	tKVRead := float64(decodeKV) * d.kvBytesPerTok / (g * c.HW.MemBandwidth)

	tTP := c.tpCommSec(newTokens, tp)
	total := d.chunkOvhSec + maxf(tLin, tWeights) + tAttn + tKVRead + tTP
	return durSec(total)
}

// ScaleDownOverhead returns the extra time proactive scale-down adds to a
// prefill iteration: pure bookkeeping (selecting which KV tokens to retain
// while they stream past in the ring), no extra communication (§4.1). It is
// bounded well under the paper's measured <2% (Fig 14a).
func (c *CostModel) ScaleDownOverhead() time.Duration {
	return 200 * time.Microsecond
}

// ReactiveMigrationTime returns the cost of the baseline reactive
// scale-down: after prefill, move `tokens` KV tokens across instances over
// the given link. Proactive migration avoids exactly this.
func (c *CostModel) ReactiveMigrationTime(tokens int, link cluster.Link) time.Duration {
	if tokens <= 0 {
		return 0
	}
	return link.Transfer(int64(tokens) * c.M.KVBytesPerToken())
}
