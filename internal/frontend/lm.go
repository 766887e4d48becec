// Package frontend implements the OpenAI-style HTTP API in front of the
// functional ESP runtime (§6: "The front end of LoongServe is similar to
// OpenAI API. Users send requests to LoongServe based on the front-end
// API"). It wires a byte-level BPE tokenizer and a tiny language model
// running real striped-prefill / multi-master-decode math into an HTTP
// server with both buffered and streaming (SSE) completions.
//
// /v1/completions and /v1/chat/completions share one request path
// (Server.serve): the routes differ only in how a body decodes and how a
// reply or stream event is shaped, so validation, generation, error
// mapping and SSE framing each exist once. Behind it, LM generates one
// request at a time and Batcher shares decode iterations across
// concurrent requests; both use LM's request check and prefill.
package frontend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"loongserve/internal/kvcache"
	"loongserve/internal/model"
	"loongserve/internal/seqparallel"
	"loongserve/internal/tensor"
	"loongserve/internal/token"
)

// Generator produces completion tokens for prompts. Implementations must
// be safe for concurrent use.
type Generator interface {
	// MaxContext returns the model's context window in tokens.
	MaxContext() int
	// Generate produces up to maxTokens continuation tokens for the
	// prompt, calling emit after each. A non-nil error from emit aborts
	// generation (client hung up). The returned finish reason is "stop"
	// (EOS sampled) or "length" (maxTokens reached).
	Generate(ctx context.Context, prompt []int, maxTokens int, temperature float64, seed int64, emit func(id int) error) (string, error)
}

// ErrContextOverflow reports a prompt + completion budget exceeding the
// model context window.
type ErrContextOverflow struct {
	Prompt, MaxTokens, Window int
}

func (e *ErrContextOverflow) Error() string {
	return fmt.Sprintf("frontend: prompt of %d tokens + max_tokens %d exceeds the %d-token context window",
		e.Prompt, e.MaxTokens, e.Window)
}

// LM is a Generator backed by the functional ESP runtime: prompts prefill
// with striped sequence parallelism across the group, and completion
// tokens decode with rotating multi-master assignment. The transformer
// math is real (tiny weights); the point is that the front end exercises
// the exact code paths §4 describes.
type LM struct {
	Tok *token.Tokenizer

	cfg   model.Config
	group *seqparallel.Group
	embed *tensor.Matrix // TotalSize x Hidden, tied input/output embedding

	mu     sync.Mutex // the functional group is single-threaded
	nextID kvcache.RequestID
}

// LMOptions configures NewLM.
type LMOptions struct {
	// Instances is the ESP group size (DoP). Default 2.
	Instances int
	// Seed makes weights and embeddings deterministic. Default 1.
	Seed int64
	// MaxContext overrides the model's context window. Default 512.
	MaxContext int
}

// NewLM builds the tiny serving model. All state is deterministic in
// opts.Seed.
func NewLM(tok *token.Tokenizer, opts LMOptions) *LM {
	if opts.Instances <= 0 {
		opts.Instances = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MaxContext <= 0 {
		opts.MaxContext = 512
	}
	cfg := model.TinyGQA()
	cfg.Name = "loongserve-tiny-lm"
	cfg.VocabSize = tok.TotalSize()
	cfg.MaxContext = opts.MaxContext

	w := model.NewWeights(cfg, opts.Seed)
	insts := make([]*seqparallel.Instance, opts.Instances)
	for i := range insts {
		insts[i] = seqparallel.NewInstance(kvcache.InstanceID(i), w)
	}
	rng := rand.New(rand.NewSource(opts.Seed + 7919))
	return &LM{
		Tok:   tok,
		cfg:   cfg,
		group: seqparallel.NewGroup(cfg, insts),
		embed: tensor.RandMatrix(rng, tok.TotalSize(), cfg.Hidden, 0.08),
	}
}

// MaxContext implements Generator.
func (lm *LM) MaxContext() int { return lm.cfg.MaxContext }

// DoP returns the ESP group size serving completions.
func (lm *LM) DoP() int { return lm.group.DoP() }

// embedRow returns the 1 x Hidden embedding of one token.
func (lm *LM) embedRow(id int) *tensor.Matrix {
	out := tensor.NewMatrix(1, lm.cfg.Hidden)
	copy(out.Row(0), lm.embed.Row(id))
	return out
}

// sample picks the next token from logits: argmax at temperature 0,
// softmax sampling otherwise.
func sample(logits []float32, temperature float64, rng *rand.Rand) int {
	if temperature <= 0 {
		best := 0
		for i, v := range logits {
			if v > logits[best] {
				best = i
			}
		}
		return best
	}
	// Temperature-scaled softmax sampling in float64 for stability.
	maxL := float64(logits[0])
	for _, v := range logits[1:] {
		if float64(v) > maxL {
			maxL = float64(v)
		}
	}
	var sum float64
	probs := make([]float64, len(logits))
	for i, v := range logits {
		p := math.Exp((float64(v) - maxL) / temperature)
		probs[i] = p
		sum += p
	}
	x := rng.Float64() * sum
	for i, p := range probs {
		x -= p
		if x <= 0 {
			return i
		}
	}
	return len(logits) - 1
}

// check validates a Generate call: a non-negative budget that fits the
// context window with the prompt, and prompt tokens inside the vocabulary.
func (lm *LM) check(prompt []int, maxTokens int) error {
	if maxTokens < 0 {
		return fmt.Errorf("frontend: negative maxTokens %d", maxTokens)
	}
	if len(prompt)+maxTokens > lm.cfg.MaxContext {
		return &ErrContextOverflow{Prompt: len(prompt), MaxTokens: maxTokens, Window: lm.cfg.MaxContext}
	}
	for _, id := range prompt {
		if id < 0 || id >= lm.Tok.TotalSize() {
			return fmt.Errorf("frontend: prompt token %d outside vocabulary", id)
		}
	}
	return nil
}

// prefill takes the next request ID and prefills the prompt across the
// group with striped sequence parallelism. It returns the ID (whose KV the
// caller drops, also on error), the prefilled length and the last hidden
// row. An empty prompt anchors on BOS so the prefill has one token.
func (lm *LM) prefill(prompt []int) (kvcache.RequestID, int, *tensor.Matrix, error) {
	lm.nextID++
	ids := prompt
	if len(ids) == 0 {
		ids = []int{lm.Tok.BOS()}
	}
	x := tensor.NewMatrix(len(ids), lm.cfg.Hidden)
	positions := make([]int, len(ids))
	for i, id := range ids {
		copy(x.Row(i), lm.embed.Row(id))
		positions[i] = i
	}
	hidden, err := lm.group.Prefill(lm.nextID, x, positions, seqparallel.UniformPlan(len(ids), lm.group.DoP()))
	if err != nil {
		return lm.nextID, len(ids), nil, fmt.Errorf("frontend: prefill: %w", err)
	}
	return lm.nextID, len(ids), hidden.SliceRows(hidden.Rows-1, hidden.Rows), nil
}

// drop releases a request's KV on every instance.
func (lm *LM) drop(rid kvcache.RequestID) {
	for _, in := range lm.group.Instances {
		in.DropRequest(rid)
	}
}

// Generate implements Generator. The prompt prefills once across the
// group; each completion token decodes with its master rotating over the
// instances, so KV for the generated suffix spreads across the group
// exactly as multi-master decoding distributes it (§4.2). This serial loop
// is the reference the Batcher is tested against.
func (lm *LM) Generate(ctx context.Context, prompt []int, maxTokens int, temperature float64, seed int64, emit func(id int) error) (string, error) {
	if err := lm.check(prompt, maxTokens); err != nil {
		return "", err
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	rid, base, last, err := lm.prefill(prompt)
	defer lm.drop(rid)
	if err != nil {
		return "", err
	}

	rng := rand.New(rand.NewSource(seed))
	produced := 0
	for produced < maxTokens {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		logits := tensor.MatMulT(last, lm.embed)
		next := sample(logits.Row(0), temperature, rng)
		if err := emit(next); err != nil {
			return "", err
		}
		produced++
		if next == lm.Tok.EOS() {
			return "stop", nil
		}
		if produced == maxTokens {
			break
		}
		outs, err := lm.group.DecodeStep([]seqparallel.DecodeRequest{{
			ID:     rid,
			X:      lm.embedRow(next),
			Pos:    base + produced - 1,
			Master: (base + produced) % lm.group.DoP(),
		}})
		if err != nil {
			return "", fmt.Errorf("frontend: decode: %w", err)
		}
		last = outs[0]
	}
	return "length", nil
}
