package frontend

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"loongserve/internal/token"
)

func decodeChat(t *testing.T, resp *http.Response) ChatResponse {
	t.Helper()
	var cr ChatResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decoding chat completion: %v", err)
	}
	return cr
}

func TestChatCompletionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/chat/completions", ChatRequest{
		Messages: []ChatMessage{
			{Role: "system", Content: "you are a serving system"},
			{Role: "user", Content: "hello"},
		},
		MaxTokens: intp(6),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	cr := decodeChat(t, resp)
	if cr.Object != "chat.completion" {
		t.Errorf("object = %q", cr.Object)
	}
	if !strings.HasPrefix(cr.ID, "chatcmpl-") {
		t.Errorf("id = %q", cr.ID)
	}
	if len(cr.Choices) != 1 {
		t.Fatalf("choices = %d", len(cr.Choices))
	}
	c := cr.Choices[0]
	if c.Message.Role != "assistant" {
		t.Errorf("role = %q", c.Message.Role)
	}
	if c.FinishReason != "length" && c.FinishReason != "stop" {
		t.Errorf("finish_reason = %q", c.FinishReason)
	}
	if cr.Usage == nil || cr.Usage.CompletionTokens == 0 {
		t.Errorf("usage = %+v", cr.Usage)
	}
	// The prompt accounting must cover the flattened conversation.
	want := len(token.Default().Encode(flattenChat([]ChatMessage{
		{Role: "system", Content: "you are a serving system"},
		{Role: "user", Content: "hello"},
	})))
	if cr.Usage.PromptTokens != want {
		t.Errorf("prompt_tokens = %d, want %d", cr.Usage.PromptTokens, want)
	}
}

func TestChatValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"no messages", `{"messages":[]}`, http.StatusBadRequest, "invalid_messages"},
		{"bad role", `{"messages":[{"role":"robot","content":"x"}]}`, http.StatusBadRequest, "invalid_role"},
		{"bad json", `{"messages": [`, http.StatusBadRequest, "invalid_json"},
		{"unknown field", `{"messages":[{"role":"user","content":"x"}],"tools":[]}`, http.StatusBadRequest, "invalid_json"},
		{"negative max_tokens", `{"messages":[{"role":"user","content":"x"}],"max_tokens":-2}`, http.StatusBadRequest, "invalid_max_tokens"},
		{"wrong model", `{"messages":[{"role":"user","content":"x"}],"model":"nope"}`, http.StatusNotFound, "model_not_found"},
		{"bad temperature", `{"messages":[{"role":"user","content":"x"}],"temperature":-1}`, http.StatusBadRequest, "invalid_temperature"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/chat/completions", "application/json", strings.NewReader(tc.body))
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

func TestChatContextLengthExceeded(t *testing.T) {
	_, ts := newTestServer(t) // window 128
	resp := postJSON(t, ts.URL+"/v1/chat/completions", ChatRequest{
		Messages:  []ChatMessage{{Role: "user", Content: strings.Repeat("zq ", 300)}},
		MaxTokens: intp(4),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "context_length_exceeded" {
		t.Errorf("error code = %q", e.Code)
	}
}

func TestChatDeterministicAtZeroTemperature(t *testing.T) {
	_, ts := newTestServer(t)
	get := func() string {
		resp := postJSON(t, ts.URL+"/v1/chat/completions", ChatRequest{
			Messages:  []ChatMessage{{Role: "user", Content: "what is elastic sequence parallelism"}},
			MaxTokens: intp(6),
		})
		return decodeChat(t, resp).Choices[0].Message.Content
	}
	if a, b := get(), get(); a != b {
		t.Errorf("greedy chat completions differ: %q vs %q", a, b)
	}
}

func TestFlattenChat(t *testing.T) {
	got := flattenChat([]ChatMessage{
		{Role: "system", Content: "be brief"},
		{Role: "user", Content: "hi"},
		{Role: "assistant", Content: "hello"},
		{Role: "user", Content: "bye"},
	})
	want := "system: be brief\nuser: hi\nassistant: hello\nuser: bye\nassistant:"
	if got != want {
		t.Errorf("flattenChat = %q, want %q", got, want)
	}
}

func TestChatMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/chat/completions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/chat/completions = %d with Allow %q, want 405 with Allow POST",
			resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// readChatSSE parses chat.completion.chunk events until [DONE].
func readChatSSE(t *testing.T, body io.Reader) []ChatStreamChunk {
	t.Helper()
	var chunks []ChatStreamChunk
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
		var c ChatStreamChunk
		if err := json.Unmarshal([]byte(payload), &c); err != nil {
			t.Fatalf("chunk %q: %v", payload, err)
		}
		chunks = append(chunks, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning SSE: %v", err)
	}
	if !done {
		t.Fatal("stream ended without [DONE]")
	}
	return chunks
}

func TestChatStreaming(t *testing.T) {
	_, ts := newTestServer(t)
	msgs := []ChatMessage{{Role: "user", Content: "stream a chat"}}

	// Buffered reference.
	ref := decodeChat(t, postJSON(t, ts.URL+"/v1/chat/completions", ChatRequest{
		Messages:  msgs,
		MaxTokens: intp(6),
	}))

	resp := postJSON(t, ts.URL+"/v1/chat/completions", ChatRequest{
		Messages:  msgs,
		MaxTokens: intp(6),
		Stream:    true,
	})
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	chunks := readChatSSE(t, resp.Body)
	if len(chunks) < 3 {
		t.Fatalf("got %d chunks, want >= 3 (role + tokens + finish)", len(chunks))
	}
	if chunks[0].Choices[0].Delta.Role != "assistant" {
		t.Errorf("opening chunk role = %q", chunks[0].Choices[0].Delta.Role)
	}
	if chunks[0].Object != "chat.completion.chunk" {
		t.Errorf("object = %q", chunks[0].Object)
	}
	var sb strings.Builder
	for _, c := range chunks[1 : len(chunks)-1] {
		sb.WriteString(c.Choices[0].Delta.Content)
	}
	last := chunks[len(chunks)-1]
	if last.Choices[0].FinishReason == "" {
		t.Error("final chunk missing finish_reason")
	}
	if sb.String() != ref.Choices[0].Message.Content {
		t.Errorf("streamed %q != buffered %q", sb.String(), ref.Choices[0].Message.Content)
	}
	if last.Choices[0].FinishReason != ref.Choices[0].FinishReason {
		t.Errorf("streamed finish %q != buffered %q",
			last.Choices[0].FinishReason, ref.Choices[0].FinishReason)
	}
}
