// Command loongserve-server runs the OpenAI-style HTTP front end (§6) over
// the functional ESP runtime: completions prefill with striped sequence
// parallelism and decode with rotating multi-master assignment on a tiny
// deterministic model, and concurrent requests share decode iterations
// (continuous batching).
//
// Usage:
//
//	loongserve-server -addr :8080 -instances 4 -context 512
//
// Then:
//
//	curl -s localhost:8080/v1/completions -d '{"prompt":"the prefill phase","max_tokens":16}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"loongserve/internal/frontend"
	"loongserve/internal/token"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	instances := flag.Int("instances", 2, "ESP group size (degree of parallelism)")
	window := flag.Int("context", 512, "model context window in tokens")
	seed := flag.Int64("seed", 1, "weight seed")
	flag.Parse()

	if *instances < 1 {
		fmt.Fprintln(os.Stderr, "loongserve-server: -instances must be >= 1")
		os.Exit(2)
	}
	if *window < 1 {
		fmt.Fprintln(os.Stderr, "loongserve-server: -context must be >= 1")
		os.Exit(2)
	}
	tok := token.Default()
	lm := frontend.NewLM(tok, frontend.LMOptions{
		Instances:  *instances,
		Seed:       *seed,
		MaxContext: *window,
	})
	b := frontend.NewBatcher(lm)
	defer b.Close()
	srv := frontend.NewServer(b, tok, "loongserve-tiny-lm")

	log.Printf("loongserve-server: serving %q on %s (DoP=%d, context=%d, vocab=%d)",
		"loongserve-tiny-lm", *addr, lm.DoP(), lm.MaxContext(), tok.TotalSize())
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatalf("loongserve-server: %v", err)
	}
}
