// Package loongserve is a pure-Go reproduction of "LoongServe: Efficiently
// Serving Long-Context Large Language Models with Elastic Sequence
// Parallelism" (SOSP 2024).
//
// The repository contains three complementary layers:
//
//   - A functional layer (internal/seqparallel on internal/model and
//     internal/attention) that executes the paper's elastic-sequence-
//     parallelism mechanisms — striped-attention prefill, proactive
//     scale-down, multi-master distributed decoding — with real transformer
//     math at toy scale, verified against a serial reference.
//   - A timing layer (internal/simevent, internal/cluster,
//     internal/costmodel) that simulates the paper's 8xA800 testbed with a
//     calibrated roofline cost model, on which the full LoongServe serving
//     system (internal/core) and every baseline of the paper's evaluation
//     (internal/baselines) run under identical conditions.
//   - The §6 serving front end: an OpenAI-style HTTP server with a
//     byte-level BPE tokenizer and iteration-level continuous batching
//     over the functional runtime (internal/frontend, internal/token).
//   - A fleet layer (internal/fleet) that scales past one elastic
//     cluster: an elastic gateway fronts a heterogeneous composition of
//     typed replicas (fleet.ReplicaKind — each kind's context envelope,
//     prefill rate and provisioning cost derived from its own cluster,
//     engine and cost model) and routes arrivals through pluggable
//     policies — round-robin, least-loaded, power-of-two-choices,
//     prefix-affinity, migrating-affinity and capability-affinity routing
//     (long prompts to long-context kinds, short to cheap ones) over
//     per-replica prefix-KV caches: a token-block radix cache sharing any
//     common prompt prefix, with eviction priced by the cost model's
//     recompute time and TinyLFU admission, exercised by multi-turn
//     session workloads
//     (workload.SessionTrace, the closed-loop workload.SessionScripts,
//     branching session families sharing a conversation trunk, and
//     long-document mixes pasting private contexts). Replicas can be
//     provisioned with a warm-up delay and drained — live sessions' KV
//     migrates to survivors over the inter-node link instead of being
//     recomputed.
//   - An autoscaling control plane (internal/autoscale) that closes the
//     loop: queue-pressure scale-up, consolidation scale-down with
//     migration-based drains, and — given candidate kinds — a kind-picking
//     scale-up that prices each kind's marginal goodput per cost unit
//     against the queue's length mix, compared against static fleets on
//     cost-normalized goodput by the bench autoscale and hetero
//     experiments and cmd/loongserve-fleet -autoscale.
//
// bench_test.go regenerates every figure of the paper's evaluation; see
// README.md for the binaries and DESIGN.md for the system inventory and
// measured results.
package loongserve
