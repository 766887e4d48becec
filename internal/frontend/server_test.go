package frontend

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"loongserve/internal/token"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	tok := token.Default()
	lm := NewLM(tok, LMOptions{Instances: 2, MaxContext: 128})
	s := NewServer(lm, tok, "loongserve-tiny-lm")
	s.Now = func() time.Time { return time.Unix(1718000000, 0) }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeCompletion(t *testing.T, resp *http.Response) CompletionResponse {
	t.Helper()
	var cr CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decoding completion: %v", err)
	}
	return cr
}

func decodeError(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return env.Error
}

func intp(v int) *int { return &v }

func TestCompletionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/completions", CompletionRequest{
		Prompt:    "the decoding phase",
		MaxTokens: intp(8),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	cr := decodeCompletion(t, resp)
	if cr.Object != "text_completion" {
		t.Errorf("object = %q", cr.Object)
	}
	if cr.Model != "loongserve-tiny-lm" {
		t.Errorf("model = %q", cr.Model)
	}
	if !strings.HasPrefix(cr.ID, "cmpl-") {
		t.Errorf("id = %q", cr.ID)
	}
	if cr.Created != 1718000000 {
		t.Errorf("created = %d", cr.Created)
	}
	if len(cr.Choices) != 1 {
		t.Fatalf("choices = %d", len(cr.Choices))
	}
	c := cr.Choices[0]
	if c.FinishReason != "length" && c.FinishReason != "stop" {
		t.Errorf("finish_reason = %q", c.FinishReason)
	}
	if cr.Usage == nil {
		t.Fatal("usage missing")
	}
	wantPrompt := len(token.Default().Encode("the decoding phase"))
	if cr.Usage.PromptTokens != wantPrompt {
		t.Errorf("prompt_tokens = %d, want %d", cr.Usage.PromptTokens, wantPrompt)
	}
	if cr.Usage.CompletionTokens == 0 || cr.Usage.CompletionTokens > 8 {
		t.Errorf("completion_tokens = %d", cr.Usage.CompletionTokens)
	}
	if cr.Usage.TotalTokens != cr.Usage.PromptTokens+cr.Usage.CompletionTokens {
		t.Errorf("total != prompt + completion")
	}
}

func TestCompletionDeterministicAtZeroTemperature(t *testing.T) {
	_, ts := newTestServer(t)
	get := func() string {
		resp := postJSON(t, ts.URL+"/v1/completions", CompletionRequest{
			Prompt:    "elastic scaling",
			MaxTokens: intp(6),
		})
		return decodeCompletion(t, resp).Choices[0].Text
	}
	if a, b := get(), get(); a != b {
		t.Errorf("greedy completions differ: %q vs %q", a, b)
	}
}

func TestCompletionDefaultMaxTokens(t *testing.T) {
	s, ts := newTestServer(t)
	s.DefaultMaxTokens = 3
	resp := postJSON(t, ts.URL+"/v1/completions", CompletionRequest{Prompt: "hi"})
	cr := decodeCompletion(t, resp)
	if cr.Usage.CompletionTokens > 3 {
		t.Errorf("completion_tokens = %d with default cap 3", cr.Usage.CompletionTokens)
	}
}

func TestCompletionValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"bad json", `{"prompt": `, http.StatusBadRequest, "invalid_json"},
		{"unknown field", `{"prompt":"x","best_of":4}`, http.StatusBadRequest, "invalid_json"},
		{"negative max_tokens", `{"prompt":"x","max_tokens":-1}`, http.StatusBadRequest, "invalid_max_tokens"},
		{"bad temperature", `{"prompt":"x","temperature":3.5}`, http.StatusBadRequest, "invalid_temperature"},
		{"wrong model", `{"prompt":"x","model":"gpt-17"}`, http.StatusNotFound, "model_not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/completions", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if e := decodeError(t, resp); e.Code != tc.wantErr {
				t.Errorf("error code = %q, want %q", e.Code, tc.wantErr)
			}
		})
	}
}

func TestCompletionContextLengthExceeded(t *testing.T) {
	_, ts := newTestServer(t) // window 128
	long := strings.Repeat("zq ", 200)
	resp := postJSON(t, ts.URL+"/v1/completions", CompletionRequest{
		Prompt:    long,
		MaxTokens: intp(10),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "context_length_exceeded" {
		t.Errorf("error code = %q", e.Code)
	}
}

func TestCompletionMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/completions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/completions = %d with Allow %q, want 405 with Allow POST",
			resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// readSSE parses "data:" events until [DONE].
func readSSE(t *testing.T, body io.Reader) []CompletionResponse {
	t.Helper()
	var chunks []CompletionResponse
	sc := bufio.NewScanner(body)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line %q", line)
		}
		if payload == "[DONE]" {
			done = true
			break
		}
		var cr CompletionResponse
		if err := json.Unmarshal([]byte(payload), &cr); err != nil {
			t.Fatalf("chunk %q: %v", payload, err)
		}
		chunks = append(chunks, cr)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning SSE: %v", err)
	}
	if !done {
		t.Fatal("stream ended without [DONE]")
	}
	return chunks
}

func TestCompletionStreaming(t *testing.T) {
	_, ts := newTestServer(t)

	// Buffered reference.
	ref := decodeCompletion(t, postJSON(t, ts.URL+"/v1/completions", CompletionRequest{
		Prompt:    "stream me",
		MaxTokens: intp(6),
	}))

	resp := postJSON(t, ts.URL+"/v1/completions", CompletionRequest{
		Prompt:    "stream me",
		MaxTokens: intp(6),
		Stream:    true,
	})
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	chunks := readSSE(t, resp.Body)
	if len(chunks) < 2 {
		t.Fatalf("got %d chunks, want >= 2 (tokens + finish)", len(chunks))
	}
	var sb strings.Builder
	for _, c := range chunks[:len(chunks)-1] {
		sb.WriteString(c.Choices[0].Text)
	}
	last := chunks[len(chunks)-1]
	if last.Choices[0].FinishReason == "" {
		t.Error("final chunk missing finish_reason")
	}
	if sb.String() != ref.Choices[0].Text {
		t.Errorf("streamed text %q != buffered %q", sb.String(), ref.Choices[0].Text)
	}
	if last.Choices[0].FinishReason != ref.Choices[0].FinishReason {
		t.Errorf("streamed finish %q != buffered %q", last.Choices[0].FinishReason, ref.Choices[0].FinishReason)
	}
}

func TestConcurrentCompletions(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(CompletionRequest{
				Prompt:    fmt.Sprintf("request %d", i),
				MaxTokens: intp(4),
			})
			resp, err := http.Post(ts.URL+"/v1/completions", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var cr CompletionResponse
			errs[i] = json.NewDecoder(resp.Body).Decode(&cr)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Object string      `json:"object"`
		Data   []ModelInfo `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Object != "list" || len(list.Data) != 1 {
		t.Fatalf("models list = %+v", list)
	}
	if list.Data[0].ID != "loongserve-tiny-lm" || list.Data[0].OwnedBy != "loongserve" {
		t.Errorf("model info = %+v", list.Data[0])
	}
	resp2, err := http.Post(ts.URL+"/v1/models", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed || resp2.Header.Get("Allow") != http.MethodGet {
		t.Errorf("POST /v1/models = %d with Allow %q, want 405 with Allow GET",
			resp2.StatusCode, resp2.Header.Get("Allow"))
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestSeededSamplingOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	get := func(seed int64) string {
		resp := postJSON(t, ts.URL+"/v1/completions", CompletionRequest{
			Prompt:      "sampled",
			MaxTokens:   intp(6),
			Temperature: 0.9,
			Seed:        seed,
		})
		return decodeCompletion(t, resp).Choices[0].Text
	}
	if a, b := get(7), get(7); a != b {
		t.Errorf("same seed produced %q and %q", a, b)
	}
}
