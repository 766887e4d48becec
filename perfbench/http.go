package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"loongserve/internal/frontend"
	"loongserve/internal/token"
)

// http-toy: two clients in a closed loop stream greedy completions from
// the OpenAI-style server over a continuous-batching Batcher on the
// functional ESP runtime (DoP 2, 512-token window), over loopback.
const (
	httpClients = 2
	httpPrompts = 64 // prompt pool; one repetition completes each once
	httpLong    = 3  // long prompts in the pool
	httpWindow  = 512
	httpModel   = "loongserve-tiny-lm"
	// httpSLOScale is the paper's budget rule applied to the real server:
	// a request meets its SLO within 25x its latency served alone.
	httpSLOScale = 25
)

// promptWords feed the prompt generator; the byte-level tokenizer
// accepts any text, so the words only shape realistic token counts.
var promptWords = strings.Fields(`the prefill phase of a long request splits its
sequence across elastic instances and the decode phase scales up when
key value cache memory runs short while scheduling requests in batches
keeps every instance busy under a latency objective for each user`)

type httpPrompt struct {
	text      string
	tokens    int // prompt tokens, as the server's tokenizer counts them
	maxTokens int
	// Filled by calibration: the greedy completion served alone.
	want   string // streamed completion text
	usage  int    // completion tokens the buffered reply reported
	finish string
	budget time.Duration // SLO budget
}

type httpToy struct {
	tok     *token.Tokenizer
	batcher *frontend.Batcher
	srv     *server
	prompts []httpPrompt
	digest  uint64 // digest of every calibrated completion
}

// server is one running front end on a loopback port.
type server struct {
	url    string
	hs     *http.Server
	done   chan struct{}
	client *http.Client
}

func startServer(gen frontend.Generator, tok *token.Tokenizer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		url:  "http://" + ln.Addr().String() + "/v1/completions",
		hs:   &http.Server{Handler: frontend.NewServer(gen, tok, httpModel).Handler()},
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: httpClients,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the server and waits for its goroutine to exit.
func (s *server) stop() {
	_ = s.hs.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

func setupHTTP(seed int64, tr *tracer) (instance, error) {
	sp := tr.begin("setup.server", -1)
	tok := token.Default()
	lm := frontend.NewLM(tok, frontend.LMOptions{Instances: 2, Seed: 1, MaxContext: httpWindow})
	b := frontend.NewBatcher(lm)
	srv, err := startServer(b, tok)
	tr.end(sp)
	if err != nil {
		b.Close()
		return nil, err
	}
	w := &httpToy{tok: tok, batcher: b, srv: srv}
	sp = tr.begin("setup.inputs", -1)
	w.prompts = genPrompts(tok, seed)
	tr.end(sp)
	sp = tr.begin("setup.calibrate", -1)
	defer tr.end(sp)
	if err := w.calibrate(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// genPrompts draws the prompt pool: httpLong long prompts (352 to 415
// tokens) among short ones whose lengths are stratified over a log-uniform
// [8, 128], with completion budgets of 8 to 32 tokens. Every seed's pool
// has the same length profile; seeds differ in content, jitter and order.
// The long prompts set the latency tails: their prefills stall the other
// stream for tens of milliseconds, which a host hiccup barely moves, while
// the short ones keep the completion rate high enough for a p99 per run.
func genPrompts(tok *token.Tokenizer, seed int64) []httpPrompt {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]httpPrompt, httpPrompts)
	budgets := rng.Perm(httpPrompts)
	const short = httpPrompts - httpLong
	for i, j := range rng.Perm(httpPrompts) {
		target := 352 + rng.Intn(64)
		if j < short {
			target = int(8 * math.Pow(2, 4*(float64(j)+rng.Float64())/short))
		}
		// A word is one to a few tokens: grow by an eighth of the shortfall
		// in words, so the prompt overshoots its target by at most a word.
		var words []string
		for n := 0; n < target; n = tok.Count(strings.Join(words, " ")) {
			for k := 0; k < max(1, (target-n)/8); k++ {
				words = append(words, promptWords[rng.Intn(len(promptWords))])
			}
		}
		ps[i].text = strings.Join(words, " ")
		ps[i].tokens = tok.Count(ps[i].text)
		ps[i].maxTokens = min(8+budgets[i]*25/httpPrompts, httpWindow-ps[i].tokens)
	}
	return ps
}

// calibrate serves every prompt alone, buffered and then streamed. The
// buffered reply's usage and finish reason, and the streamed reply's text,
// are what every later streamed reply of the prompt must reproduce (the
// two texts can differ: a streamed chunk holds one token, and a token may
// end inside a UTF-8 sequence). The streamed latency sets the prompt's SLO
// budget. Calibration doubles as warm-up.
func (w *httpToy) calibrate() error {
	h := fnvOffset
	for i := range w.prompts {
		p := &w.prompts[i]
		if err := w.srv.buffered(p); err != nil {
			return fmt.Errorf("calibrating prompt %d: %w", i, err)
		}
		c, err := w.srv.complete(context.Background(), p)
		if err != nil {
			return fmt.Errorf("calibrating prompt %d: %w", i, err)
		}
		p.want = c.text
		if err := c.check(p); err != nil {
			return fmt.Errorf("calibrating prompt %d: %w", i, err)
		}
		p.budget = httpSLOScale * c.latency
		h.str(p.want)
		h.str(p.finish)
	}
	w.digest = uint64(h)
	return nil
}

// buffered serves one prompt without streaming and records its usage and
// finish reason.
func (s *server) buffered(p *httpPrompt) error {
	body, _ := json.Marshal(map[string]any{"prompt": p.text, "max_tokens": p.maxTokens, "temperature": 0})
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var cr frontend.CompletionResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return err
	}
	if cr.Usage == nil || len(cr.Choices) != 1 {
		return errors.New("reply without usage or choice")
	}
	if cr.Usage.PromptTokens != p.tokens {
		return fmt.Errorf("server counted %d prompt tokens, tokenizer %d", cr.Usage.PromptTokens, p.tokens)
	}
	p.usage, p.finish = cr.Usage.CompletionTokens, cr.Choices[0].FinishReason
	return nil
}

func (w *httpToy) fingerprint() uint64 {
	h := fnvOffset
	for _, p := range w.prompts {
		h.str(p.text)
		h.i64(int64(p.maxTokens))
	}
	return uint64(h)
}

func (w *httpToy) close() {
	w.srv.stop()
	w.batcher.Close()
}

// completion is one streamed reply as the client saw it.
type completion struct {
	status  int
	text    string
	chunks  int // token chunks
	finish  string
	ttft    time.Duration // send to first token
	last    time.Duration // send to last token
	gaps    []time.Duration
	latency time.Duration
}

// check compares a streamed reply with the prompt's calibrated greedy
// completion: status 200, one chunk per reported completion token, the
// same text and finish reason.
func (c *completion) check(p *httpPrompt) error {
	switch {
	case c.status != http.StatusOK:
		return fmt.Errorf("status %d", c.status)
	case c.finish == "":
		return errors.New("stream truncated before its finish chunk")
	case c.chunks != p.usage:
		return fmt.Errorf("%d streamed tokens, usage reported %d", c.chunks, p.usage)
	case c.text != p.want || c.finish != p.finish:
		return fmt.Errorf("greedy completion differs from the calibrated one (%q/%s vs %q/%s)", c.text, c.finish, p.want, p.finish)
	}
	return nil
}

// complete streams one greedy completion and times it from send.
func (s *server) complete(ctx context.Context, p *httpPrompt) (*completion, error) {
	body, _ := json.Marshal(map[string]any{"prompt": p.text, "max_tokens": p.maxTokens, "temperature": 0, "stream": true})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c := &completion{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return c, nil
	}
	var text strings.Builder
	last := t0
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadSlice('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		data, ok := bytes.CutPrefix(bytes.TrimRight(line, "\r\n"), []byte("data: "))
		if !ok {
			continue
		}
		if string(data) == "[DONE]" {
			break
		}
		now := time.Now()
		var chunk frontend.CompletionResponse
		if err := json.Unmarshal(data, &chunk); err != nil {
			return nil, fmt.Errorf("bad stream chunk: %w", err)
		}
		if len(chunk.Choices) != 1 {
			return nil, fmt.Errorf("stream chunk with %d choices", len(chunk.Choices))
		}
		if f := chunk.Choices[0].FinishReason; f != "" {
			c.finish = f
			continue
		}
		if c.chunks == 0 {
			c.ttft = now.Sub(t0)
		} else {
			c.gaps = append(c.gaps, now.Sub(last))
		}
		last = now
		c.last = now.Sub(t0)
		c.chunks++
		text.WriteString(chunk.Choices[0].Text)
	}
	c.latency = time.Since(t0)
	c.text = text.String()
	return c, nil
}

func (w *httpToy) run(tr *tracer) (*outcome, error) {
	srv := w.srv
	if tr != nil {
		var err error
		if srv, err = startServer(tr.generator(w.batcher), w.tok); err != nil {
			return nil, err
		}
		defer srv.stop()
	}
	iters0, _ := w.batcher.Stats()
	lat := &latencies{n: len(w.prompts)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, httpClients)
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.prompts); i += httpClients {
				p := &w.prompts[i]
				sp := int32(-1)
				if tr != nil {
					sp = tr.open("client.request", int64(i), -1)
				}
				got, err := srv.complete(context.Background(), p)
				if tr != nil {
					tr.close(sp)
				}
				if err == nil {
					err = got.check(p)
				}
				if err != nil {
					errs[c] = fmt.Errorf("prompt %d: %w", i, err)
					return
				}
				mu.Lock()
				lat.ttft = append(lat.ttft, ms(got.ttft))
				if len(got.gaps) > 0 {
					lat.tpot = append(lat.tpot, ms(got.last-got.ttft)/float64(len(got.gaps)))
				}
				for _, g := range got.gaps {
					lat.itl = append(lat.itl, ms(g))
				}
				if got.latency <= p.budget {
					lat.met++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	iters1, maxBatch := w.batcher.Stats()
	tokens := 0
	for _, p := range w.prompts {
		tokens += p.usage
	}
	layer := map[string]float64{"frontend.max_batch": float64(maxBatch)}
	if d := iters1 - iters0; d > 0 {
		// Every completion's first token comes out of its prefill; the
		// rest out of shared decode iterations.
		layer["frontend.tokens_per_iter"] = float64(tokens-len(w.prompts)) / float64(d)
	}
	return &outcome{requests: len(w.prompts), digest: w.digest, lat: lat, layer: layer}, nil
}
