package frontend

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"loongserve/internal/token"
)

// CompletionRequest is the accepted subset of the OpenAI completions API.
type CompletionRequest struct {
	Model       string  `json:"model"`
	Prompt      string  `json:"prompt"`
	MaxTokens   *int    `json:"max_tokens,omitempty"`
	Temperature float64 `json:"temperature,omitempty"`
	Stream      bool    `json:"stream,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// Choice is one completion alternative (this server always returns one).
type Choice struct {
	Text         string `json:"text"`
	Index        int    `json:"index"`
	FinishReason string `json:"finish_reason,omitempty"`
}

// Usage reports token accounting for one request.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// CompletionResponse is the buffered (non-stream) reply; stream chunks use
// the same shape with partial Text and omitted Usage.
type CompletionResponse struct {
	ID      string   `json:"id"`
	Object  string   `json:"object"`
	Created int64    `json:"created"`
	Model   string   `json:"model"`
	Choices []Choice `json:"choices"`
	Usage   *Usage   `json:"usage,omitempty"`
}

// APIError is the error envelope.
type APIError struct {
	Message string `json:"message"`
	Type    string `json:"type"`
	Code    string `json:"code,omitempty"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// ModelInfo describes one entry of /v1/models.
type ModelInfo struct {
	ID      string `json:"id"`
	Object  string `json:"object"`
	Created int64  `json:"created"`
	OwnedBy string `json:"owned_by"`
}

// Server is the HTTP front end. Construct with NewServer and mount via
// Handler.
type Server struct {
	gen   Generator
	tok   *token.Tokenizer
	model string
	// Now is the clock used for "created" stamps; overridable in tests.
	Now func() time.Time
	// DefaultMaxTokens applies when max_tokens is omitted (OpenAI
	// defaults to 16).
	DefaultMaxTokens int

	nextID atomic.Int64
}

// NewServer wires a Generator and tokenizer behind the API.
func NewServer(gen Generator, tok *token.Tokenizer, modelName string) *Server {
	return &Server{
		gen:              gen,
		tok:              tok,
		model:            modelName,
		Now:              time.Now,
		DefaultMaxTokens: 16,
	}
}

// Handler returns the routable HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range []*endpoint{&completions, &chat} {
		mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, ep) })
	}
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the error envelope; 5xx statuses are server errors,
// everything else is the client's.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	typ := "invalid_request_error"
	if status >= 500 {
		typ = "server_error"
	}
	writeJSON(w, status, errorEnvelope{Error: APIError{Message: fmt.Sprintf(format, args...), Type: typ, Code: code}})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s not allowed on /v1/models", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"object": "list",
		"data": []ModelInfo{{
			ID:      s.model,
			Object:  "model",
			Created: s.Now().Unix(),
			OwnedBy: "loongserve",
		}},
	})
}

// endpoint is what the two generation routes do differently; serve is
// everything they share.
type endpoint struct {
	path     string // the route, also named in the 405 message
	idPrefix string
	noun     string // names the prompt in the context-length error
	decode   func(*json.Decoder) (genRequest, error)
	// reply is the buffered response; chunk is one stream event carrying a
	// token's text or, with empty text, the finish reason.
	reply func(h header, text, finish string, usage *Usage) any
	chunk func(h header, text, finish string) any
	// open, when set, is the first stream event.
	open func(h header) any
}

// genRequest is a decoded body reduced to what serve reads.
type genRequest struct {
	model       string
	maxTokens   *int
	temperature float64
	stream      bool
	seed        int64
	text        string    // prompt text to tokenize
	invalid     *APIError // the route's own check, reported after the model check
}

// header is what every reply and stream event of one request repeats.
type header struct {
	id      string
	created int64
	model   string
}

var completions = endpoint{
	path: "/v1/completions", idPrefix: "cmpl-", noun: "prompt",
	decode: func(dec *json.Decoder) (genRequest, error) {
		var r CompletionRequest
		err := dec.Decode(&r)
		return genRequest{model: r.Model, maxTokens: r.MaxTokens, temperature: r.Temperature,
			stream: r.Stream, seed: r.Seed, text: r.Prompt}, err
	},
	reply: completionReply,
	chunk: func(h header, text, finish string) any { return completionReply(h, text, finish, nil) },
}

func completionReply(h header, text, finish string, usage *Usage) any {
	return CompletionResponse{ID: h.id, Object: "text_completion", Created: h.created, Model: h.model,
		Choices: []Choice{{Text: text, FinishReason: finish}}, Usage: usage}
}

// serve is the one request path behind both generation routes: method,
// body cap and decoding; the model, route, max_tokens, temperature and
// context checks in that order; then a buffered or streamed generation.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, ep *endpoint) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s not allowed on %s", r.Method, ep.path)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read_error", "reading body: %v", err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req, err := ep.decode(dec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_json", "parsing request: %v", err)
		return
	}
	if req.model != "" && req.model != s.model {
		writeError(w, http.StatusNotFound, "model_not_found", "model %q not found (serving %q)", req.model, s.model)
		return
	}
	if req.invalid != nil {
		writeJSON(w, http.StatusBadRequest, errorEnvelope{Error: *req.invalid})
		return
	}
	maxTokens := s.DefaultMaxTokens
	if req.maxTokens != nil {
		maxTokens = *req.maxTokens
	}
	if maxTokens < 0 {
		writeError(w, http.StatusBadRequest, "invalid_max_tokens", "max_tokens must be non-negative, got %d", maxTokens)
		return
	}
	if req.temperature < 0 || req.temperature > 2 {
		writeError(w, http.StatusBadRequest, "invalid_temperature", "temperature must be in [0, 2], got %g", req.temperature)
		return
	}
	prompt := s.tok.Encode(req.text)
	if len(prompt)+maxTokens > s.gen.MaxContext() {
		writeError(w, http.StatusBadRequest, "context_length_exceeded",
			"%s of %d tokens + max_tokens %d exceeds the %d-token context window",
			ep.noun, len(prompt), maxTokens, s.gen.MaxContext())
		return
	}

	h := header{id: fmt.Sprintf("%s%d", ep.idPrefix, s.nextID.Add(1)), created: s.Now().Unix(), model: s.model}
	seed := req.seed
	if seed == 0 {
		seed = s.nextID.Load()
	}
	generate := func(emit func(text string) error) (string, error) {
		return s.gen.Generate(r.Context(), prompt, maxTokens, req.temperature, seed, func(id int) error {
			text, err := s.tok.Decode([]int{id})
			if err != nil {
				return err
			}
			return emit(text)
		})
	}
	if req.stream {
		stream(w, ep, h, generate)
		return
	}

	var sb strings.Builder
	completion := 0
	finish, err := generate(func(text string) error {
		sb.WriteString(text)
		completion++
		return nil
	})
	var overflow *ErrContextOverflow
	switch {
	case errors.As(err, &overflow):
		writeError(w, http.StatusBadRequest, "context_length_exceeded", "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "generation_failed", "%v", err)
	default:
		writeJSON(w, http.StatusOK, ep.reply(h, sb.String(), finish, &Usage{
			PromptTokens:     len(prompt),
			CompletionTokens: completion,
			TotalTokens:      len(prompt) + completion,
		}))
	}
}

// stream writes Server-Sent Events: the route's opening event if it has
// one, one chunk per token, a chunk carrying the finish reason, then
// "[DONE]".
func stream(w http.ResponseWriter, ep *endpoint, h header, generate func(emit func(string) error) (string, error)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "no_flush", "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event any) error {
		b, err := json.Marshal(event)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}
	if ep.open != nil {
		if err := send(ep.open(h)); err != nil {
			return
		}
	}
	finish, err := generate(func(text string) error { return send(ep.chunk(h, text, "")) })
	if err != nil {
		finish = "error" // headers are gone; the failure is a terminal event
	}
	_ = send(ep.chunk(h, "", finish))
	_, _ = io.WriteString(w, "data: [DONE]\n\n")
	flusher.Flush()
}
