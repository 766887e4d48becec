package frontend

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"loongserve/internal/kvcache"
	"loongserve/internal/seqparallel"
	"loongserve/internal/tensor"
)

// Batcher aggregates concurrent Generate calls into shared decode
// iterations — iteration-level continuous batching (Orca-style) over the
// functional ESP runtime. New requests join the running batch at the next
// iteration boundary; every iteration runs one multi-master DecodeStep for
// all active requests, with mastership spread round-robin so generated KV
// distributes across the group exactly as §4.2 describes.
//
// Batcher implements Generator, so it drops into Server in place of the
// serialized LM.
type Batcher struct {
	lm *LM

	mu     sync.Mutex
	joinCh chan *batchEntry
	quit   chan struct{}
	once   sync.Once

	// pending counts Generate calls that have committed to joining (between
	// their validation and the joinCh hand-off). The engine loop refuses to
	// start an iteration while a committed joiner is in flight, so calls
	// that arrive together share decode iterations instead of racing the
	// loop's iteration boundary.
	pending atomic.Int32

	// MaxBatchObserved is instrumentation: the largest decode batch any
	// iteration ran (tests assert batching actually happens).
	maxBatch int
	iters    int
}

// batchEntry is one in-flight generation inside the batcher.
type batchEntry struct {
	ctx         context.Context
	prompt      []int
	maxTokens   int
	temperature float64
	rng         *rand.Rand
	emit        func(int) error

	// loop-owned state
	rid       kvcache.RequestID
	baseLen   int // prefill token count
	produced  int
	last      *tensor.Matrix
	nextInput int // token to feed into the next decode iteration

	finish string
	err    error
	done   chan struct{}
}

// NewBatcher wraps an LM with continuous batching. The LM must not be
// used directly while the batcher owns it (the engine loop is the sole
// group driver). Close releases the engine goroutine.
func NewBatcher(lm *LM) *Batcher {
	b := &Batcher{
		lm:     lm,
		joinCh: make(chan *batchEntry),
		quit:   make(chan struct{}),
	}
	go b.loop()
	return b
}

// Close stops the engine loop. In-flight generations finish with an error.
func (b *Batcher) Close() {
	b.once.Do(func() { close(b.quit) })
}

// MaxContext implements Generator.
func (b *Batcher) MaxContext() int { return b.lm.MaxContext() }

// Stats returns (iterations run, largest decode batch observed).
func (b *Batcher) Stats() (iters, maxBatch int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.iters, b.maxBatch
}

// Generate implements Generator. Unlike LM.Generate, concurrent calls
// share decode iterations instead of serializing whole generations.
func (b *Batcher) Generate(ctx context.Context, prompt []int, maxTokens int, temperature float64, seed int64, emit func(id int) error) (string, error) {
	if err := b.lm.check(prompt, maxTokens); err != nil {
		return "", err
	}
	e := &batchEntry{
		ctx:         ctx,
		prompt:      prompt,
		maxTokens:   maxTokens,
		temperature: temperature,
		rng:         rand.New(rand.NewSource(seed)),
		emit:        emit,
		done:        make(chan struct{}),
	}
	b.pending.Add(1)
	select {
	case b.joinCh <- e:
	case <-b.quit:
		b.pending.Add(-1)
		return "", fmt.Errorf("frontend: batcher closed")
	case <-ctx.Done():
		b.pending.Add(-1)
		return "", ctx.Err()
	}
	select {
	case <-e.done:
		return e.finish, e.err
	case <-b.quit:
		return "", fmt.Errorf("frontend: batcher closed")
	}
}

// retire completes an entry and drops its KV from every instance.
func (b *Batcher) retire(e *batchEntry, finish string, err error) {
	b.lm.drop(e.rid)
	e.finish, e.err = finish, err
	close(e.done)
}

// admit prefills a newly joined entry and emits its first token. Returns
// false when the entry finished immediately (maxTokens 0, EOS first, emit
// failure).
func (b *Batcher) admit(e *batchEntry) bool {
	var err error
	e.rid, e.baseLen, e.last, err = b.lm.prefill(e.prompt)
	if err != nil {
		b.retire(e, "", err)
		return false
	}
	return b.step(e) // sample and emit the first token
}

// step samples the next token from e.last, emits it, and reports whether
// the entry stays active (needs another decode iteration).
func (b *Batcher) step(e *batchEntry) bool {
	if e.produced >= e.maxTokens {
		b.retire(e, "length", nil)
		return false
	}
	if err := e.ctx.Err(); err != nil {
		b.retire(e, "", err)
		return false
	}
	logits := tensor.MatMulT(e.last, b.lm.embed)
	next := sample(logits.Row(0), e.temperature, e.rng)
	if err := e.emit(next); err != nil {
		b.retire(e, "", err)
		return false
	}
	e.produced++
	if next == b.lm.Tok.EOS() {
		b.retire(e, "stop", nil)
		return false
	}
	if e.produced == e.maxTokens {
		b.retire(e, "length", nil)
		return false
	}
	e.nextInput = next
	return true
}

// loop is the engine: admit joiners at iteration boundaries, run one
// shared multi-master decode step per iteration, sample/emit per request.
func (b *Batcher) loop() {
	var active []*batchEntry
	for {
		// Block for the first joiner when idle; otherwise drain joiners
		// non-blocking (they wait for the iteration boundary).
		if len(active) == 0 {
			select {
			case e := <-b.joinCh:
				b.pending.Add(-1)
				if b.admit(e) {
					active = append(active, e)
				}
			case <-b.quit:
				return
			}
			continue
		}
		// Iteration boundary: admit every call that has already committed
		// to joining (pending counts callers between their commit and the
		// joinCh hand-off), and yield to the scheduler at least once so
		// runnable callers that have not reached their commit yet get a
		// scheduling round to do so. Without the yield a fast engine loop
		// monopolizes its processor — generations finish inside one
		// preemption quantum — and concurrent Generate calls trickle in
		// one per generation instead of sharing decode iterations.
		yielded := false
		for {
			select {
			case e := <-b.joinCh:
				b.pending.Add(-1)
				if b.admit(e) {
					active = append(active, e)
				}
				continue
			case <-b.quit:
				return
			default:
			}
			if b.pending.Load() > 0 || !yielded {
				yielded = true
				runtime.Gosched()
				continue
			}
			break
		}
		if len(active) == 0 {
			continue
		}

		// One shared decode iteration for every active request.
		batch := make([]seqparallel.DecodeRequest, len(active))
		for i, e := range active {
			batch[i] = seqparallel.DecodeRequest{
				ID:     e.rid,
				X:      b.lm.embedRow(e.nextInput),
				Pos:    e.baseLen + e.produced - 1,
				Master: (e.baseLen + e.produced) % b.lm.group.DoP(),
			}
		}
		b.mu.Lock()
		b.iters++
		if len(batch) > b.maxBatch {
			b.maxBatch = len(batch)
		}
		b.mu.Unlock()
		outs, err := b.lm.group.DecodeStep(batch)
		if err != nil {
			for _, e := range active {
				b.retire(e, "", fmt.Errorf("frontend: decode: %w", err))
			}
			active = nil
			continue
		}
		next := active[:0]
		for i, e := range active {
			e.last = outs[i]
			if b.step(e) {
				next = append(next, e)
			}
		}
		active = next
	}
}
