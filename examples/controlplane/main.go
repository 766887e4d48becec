// Example controlplane drives the §6 control path end to end: a global
// manager commands four elastic instances over the wire protocol (compact
// varint codec, ESP metadata caching, NAK/resend recovery) through the
// Fig 6 lifecycle — prefill with a proactive scale-down plan, scale-down,
// decoding rounds, elastic scale-up, release.
//
// The instances mirror KV accounting in real token pools, so the printout
// shows exactly where every token's KV lives after each command.
package main

import (
	"fmt"
	"log"

	"loongserve/internal/controlplane"
	"loongserve/internal/kvcache"
)

func main() {
	const n = 4
	mgr := controlplane.NewManager()
	defer mgr.Close()
	mirrors := make([]*controlplane.MirrorHandler, n)
	for i := 0; i < n; i++ {
		mirrors[i] = controlplane.NewMirrorHandler(kvcache.InstanceID(i), 100_000)
		srv := controlplane.NewInstanceServer(kvcache.InstanceID(i), mirrors[i])
		mgr.AddInstance(kvcache.InstanceID(i), controlplane.Inline(srv))
	}

	show := func(stage string) {
		fmt.Printf("%-34s", stage)
		for i, m := range mirrors {
			fmt.Printf("  inst%d=%5d", i, m.Pool.TotalUsed())
		}
		st := mgr.Stats()
		fmt.Printf("   [configs=%d cmds=%d naks=%d]\n", st.ConfigsSent, st.Commands, st.Naks)
	}

	// A parallel group over all four instances (DoP=4, TP=2 inside each).
	if err := mgr.CreateGroup(1, []kvcache.InstanceID{0, 1, 2, 3}, 2); err != nil {
		log.Fatal(err)
	}
	show("group created (DoP=4)")

	// Prefill 20K tokens with a proactive scale-down plan: the retention
	// plan pins the whole batch onto instances 0 and 1 while the KV blocks
	// circulate — zero extra communication (§4.1).
	const tokens = 20_000
	plan := make([]int32, tokens)
	for t := tokens / 2; t < tokens; t++ {
		plan[t] = 1
	}
	reqs := []controlplane.RequestSpec{{ID: 100, Len: tokens}}
	if err := mgr.Prefill(1, reqs, plan); err != nil {
		log.Fatal(err)
	}
	show("prefill 20K w/ retention plan")

	// Scale down to the two retaining instances; the epoch bumps in the
	// instances' metadata caches without a config resend.
	if err := mgr.Scale(1, controlplane.ScaleDown, []kvcache.InstanceID{0, 1}); err != nil {
		log.Fatal(err)
	}
	show("scale-down to DoP=2")

	// Decoding rounds; masters alternate so new KV spreads (§4.2).
	for i := 0; i < 64; i++ {
		dec := []controlplane.RequestSpec{{ID: 100, Len: tokens + i}}
		if err := mgr.Decode(1, dec, []int32{int32(i % 2)}); err != nil {
			log.Fatal(err)
		}
	}
	show("64 decode iterations")

	// Elastic scale-up: instance 2 rejoins with no KV migration.
	if err := mgr.Scale(1, controlplane.ScaleUp, []kvcache.InstanceID{0, 1, 2}); err != nil {
		log.Fatal(err)
	}
	for i := 64; i < 96; i++ {
		dec := []controlplane.RequestSpec{{ID: 100, Len: tokens + i}}
		if err := mgr.Decode(1, dec, []int32{2}); err != nil {
			log.Fatal(err)
		}
	}
	show("scale-up + 32 more iterations")

	// Release the finished request everywhere.
	if err := mgr.Release(1, []kvcache.RequestID{100}); err != nil {
		log.Fatal(err)
	}
	show("release")

	st := mgr.Stats()
	fmt.Printf("\nmetadata caching: %d commands rode %d config pushes (one per member per epoch)\n",
		st.Commands, st.ConfigsSent)
}
