package frontend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"loongserve/internal/token"
)

// failingGen emits fixed tokens and then fails with err: it drives the
// server's mapping of generation errors, which the tiny model never hits.
type failingGen struct {
	ids []int
	err error
}

func (g failingGen) MaxContext() int { return 128 }

func (g failingGen) Generate(_ context.Context, _ []int, _ int, _ float64, _ int64, emit func(int) error) (string, error) {
	for _, id := range g.ids {
		if err := emit(id); err != nil {
			return "", err
		}
	}
	return "", g.err
}

// wireCase is one request of the wire golden, sent to the server named by
// gen ("lm", "boom" or "overflow").
type wireCase struct {
	name, gen, method, path, body string
}

func wireCases() []wireCase {
	const cmpl, chat = "/v1/completions", "/v1/chat/completions"
	long := strings.Repeat("zq ", 200)
	user := func(content, rest string) string {
		return fmt.Sprintf(`{"messages":[{"role":"user","content":%q}]%s}`, content, rest)
	}
	return []wireCase{
		{"cmpl/greedy", "lm", "POST", cmpl, `{"prompt":"the decoding phase","max_tokens":8}`},
		{"cmpl/greedy-stream", "lm", "POST", cmpl, `{"prompt":"the decoding phase","max_tokens":8,"stream":true}`},
		{"cmpl/seeded", "lm", "POST", cmpl, `{"prompt":"sampled","max_tokens":6,"temperature":0.9,"seed":7}`},
		{"cmpl/seeded-stream", "lm", "POST", cmpl, `{"prompt":"sampled","max_tokens":6,"temperature":0.9,"seed":7,"stream":true}`},
		{"cmpl/default-seed", "lm", "POST", cmpl, `{"prompt":"sampled","max_tokens":6,"temperature":0.9}`},
		{"cmpl/default-max-tokens", "lm", "POST", cmpl, `{"prompt":"hi","model":"loongserve-tiny-lm"}`},
		{"cmpl/zero-max-tokens", "lm", "POST", cmpl, `{"prompt":"hi","max_tokens":0}`},
		{"cmpl/zero-max-tokens-stream", "lm", "POST", cmpl, `{"prompt":"hi","max_tokens":0,"stream":true}`},
		{"cmpl/empty-prompt", "lm", "POST", cmpl, `{"prompt":"","max_tokens":3}`},
		{"cmpl/bad-json", "lm", "POST", cmpl, `{"prompt": `},
		{"cmpl/unknown-field", "lm", "POST", cmpl, `{"prompt":"x","best_of":4}`},
		{"cmpl/wrong-type", "lm", "POST", cmpl, `{"prompt":"x","max_tokens":"8"}`},
		{"cmpl/negative-max-tokens", "lm", "POST", cmpl, `{"prompt":"x","max_tokens":-1}`},
		{"cmpl/bad-temperature", "lm", "POST", cmpl, `{"prompt":"x","temperature":3.5}`},
		{"cmpl/wrong-model", "lm", "POST", cmpl, `{"prompt":"x","model":"gpt-17"}`},
		{"cmpl/wrong-model-first", "lm", "POST", cmpl, `{"prompt":"x","model":"gpt-17","max_tokens":-1}`},
		{"cmpl/max-tokens-before-temperature", "lm", "POST", cmpl, `{"prompt":"x","max_tokens":-1,"temperature":9}`},
		{"cmpl/over-window", "lm", "POST", cmpl, fmt.Sprintf(`{"prompt":%q,"max_tokens":10}`, long)},
		{"cmpl/get", "lm", "GET", cmpl, ""},
		{"chat/greedy", "lm", "POST", chat, `{"messages":[{"role":"system","content":"you are a serving system"},{"role":"user","content":"hello"}],"max_tokens":6}`},
		{"chat/greedy-stream", "lm", "POST", chat, user("stream a chat", `,"max_tokens":6,"stream":true`)},
		{"chat/seeded", "lm", "POST", chat, user("sampled", `,"max_tokens":6,"temperature":0.9,"seed":7`)},
		{"chat/seeded-stream", "lm", "POST", chat, user("sampled", `,"max_tokens":6,"temperature":0.9,"seed":7,"stream":true`)},
		{"chat/default-max-tokens", "lm", "POST", chat, user("hi", "")},
		{"chat/zero-max-tokens", "lm", "POST", chat, user("hi", `,"max_tokens":0`)},
		{"chat/zero-max-tokens-stream", "lm", "POST", chat, user("hi", `,"max_tokens":0,"stream":true`)},
		{"chat/no-messages", "lm", "POST", chat, `{"messages":[]}`},
		{"chat/bad-role", "lm", "POST", chat, `{"messages":[{"role":"user","content":"x"},{"role":"robot","content":"x"}]}`},
		{"chat/bad-json", "lm", "POST", chat, `{"messages": [`},
		{"chat/unknown-field", "lm", "POST", chat, user("x", `,"tools":[]`)},
		{"chat/negative-max-tokens", "lm", "POST", chat, user("x", `,"max_tokens":-2`)},
		{"chat/wrong-model", "lm", "POST", chat, user("x", `,"model":"nope"`)},
		{"chat/wrong-model-first", "lm", "POST", chat, `{"messages":[],"model":"nope"}`},
		{"chat/role-before-max-tokens", "lm", "POST", chat, `{"messages":[{"role":"robot","content":"x"}],"max_tokens":-1}`},
		{"chat/bad-temperature", "lm", "POST", chat, user("x", `,"temperature":-1`)},
		{"chat/over-window", "lm", "POST", chat, user(long, `,"max_tokens":4`)},
		{"chat/get", "lm", "GET", chat, ""},
		{"models", "lm", "GET", "/v1/models", ""},
		{"models/post", "lm", "POST", "/v1/models", ""},
		{"healthz", "lm", "GET", "/healthz", ""},
		{"cmpl/gen-error", "boom", "POST", cmpl, `{"prompt":"x","max_tokens":4}`},
		{"cmpl/gen-error-stream", "boom", "POST", cmpl, `{"prompt":"x","max_tokens":4,"stream":true}`},
		{"cmpl/gen-overflow", "overflow", "POST", cmpl, `{"prompt":"x","max_tokens":4}`},
		{"chat/gen-error", "boom", "POST", chat, user("x", `,"max_tokens":4`)},
		{"chat/gen-error-stream", "boom", "POST", chat, user("x", `,"max_tokens":4,"stream":true`)},
		{"chat/gen-overflow", "overflow", "POST", chat, user("x", `,"max_tokens":4`)},
	}
}

// wireTranscript sends every wire case in order, each to a server that sees
// all earlier cases of its generator (IDs and default seeds count up), and
// renders one line per case: name, status, Content-Type and quoted body.
func wireTranscript(t *testing.T) []byte {
	t.Helper()
	tok := token.Default()
	servers := map[string]*Server{
		"lm":       NewServer(NewLM(tok, LMOptions{Instances: 2, MaxContext: 128}), tok, "loongserve-tiny-lm"),
		"boom":     NewServer(failingGen{ids: tok.Encode("partial"), err: errors.New("boom")}, tok, "loongserve-tiny-lm"),
		"overflow": NewServer(failingGen{err: &ErrContextOverflow{Prompt: 100, MaxTokens: 50, Window: 128}}, tok, "loongserve-tiny-lm"),
	}
	for _, s := range servers {
		s.Now = func() time.Time { return time.Unix(1718000000, 0) }
	}
	var out bytes.Buffer
	for _, c := range wireCases() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		servers[c.gen].Handler().ServeHTTP(rec, req)
		fmt.Fprintf(&out, "%s: %d %q %q\n", c.name, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	return out.Bytes()
}

// TestWireGolden pins the bytes both generation routes put on the wire:
// status, Content-Type and body for buffered and streamed replies, seeded
// and default-seeded sampling, default and zero max_tokens, every
// validation error and the order of the checks, generation-error mapping,
// GET 405, /v1/models and /healthz. testdata/wire.golden was captured with
// one pipeline per route; a refactor of the request path must pass it
// unedited.
func TestWireGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := wireTranscript(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("wire line %d diverged from testdata/wire.golden\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestBodyCap: both routes read at most 8 MiB of body, so a 9 MiB request
// fails as truncated JSON before any of it is tokenized.
func TestBodyCap(t *testing.T) {
	s, _ := newTestServer(t)
	big := strings.Repeat("a", 9<<20)
	for path, body := range map[string]string{
		"/v1/completions":      fmt.Sprintf(`{"prompt":%q}`, big),
		"/v1/chat/completions": fmt.Sprintf(`{"messages":[{"role":"user","content":%q}]}`, big),
	} {
		t.Run(path, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", rec.Code)
			}
			if e := decodeError(t, rec.Result()); e.Code != "invalid_json" {
				t.Errorf("error code = %q, want invalid_json", e.Code)
			}
		})
	}
}
