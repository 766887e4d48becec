package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

func TestModuleMapping(t *testing.T) {
	const repo = "/src/loongserve/internal/"
	cases := []struct {
		stack []frame // innermost first
		want  string
	}{
		{[]frame{{"loongserve/internal/core.(*Engine).schedule", repo + "core/loongserve.go"}}, "core"},
		{[]frame{{"loongserve/internal/fleet.(*RadixCache).Lookup", repo + "fleet/radixcache.go"}}, "fleet.radix"},
		{[]frame{{"loongserve/internal/fleet.(*RadixIndex).acquire", repo + "fleet/radixindex.go"}}, "fleet.radix"},
		{[]frame{{"loongserve/internal/fleet.(*freqSketch).touch", repo + "fleet/prefixcache.go"}}, "fleet.prefixcache"},
		{[]frame{{"loongserve/internal/fleet.(*lruList).pushFront", repo + "fleet/lru.go"}}, "fleet.prefixcache"},
		{[]frame{{"loongserve/internal/fleet.(*CacheDirectory).add", repo + "fleet/directory.go"}}, "fleet.directory"},
		{[]frame{{"loongserve/internal/fleet.(*coldTier).spill", repo + "fleet/coldtier.go"}}, "fleet.coldtier"},
		{[]frame{{"loongserve/internal/fleet.(*shardRunner).replay", repo + "fleet/shard.go"}}, "fleet.shard"},
		{[]frame{{"loongserve/internal/fleet.(*StreamFeed).emit", repo + "fleet/sessions.go"}}, "fleet.sessions"},
		{[]frame{{"loongserve/internal/fleet.(*Gateway).emitRoute", repo + "fleet/obs.go"}}, "fleet.obs"},
		{[]frame{{"loongserve/internal/fleet.(*CapabilityAffinity).pick", repo + "fleet/policy.go"}}, "fleet.policy"},
		{[]frame{{"loongserve/internal/fleet.(*Gateway).CrashReplica", repo + "fleet/faults.go"}}, "fleet.gateway"},
		{[]frame{{"loongserve/internal/fleet.(*Gateway).Submit.func1", repo + "fleet/gateway.go"}}, "fleet.gateway"},
		{[]frame{{"loongserve/internal/obs/analyze.(*Auditor).Emit", repo + "obs/analyze/auditor.go"}}, "obs.analyze"},
		{[]frame{{"loongserve/internal/obs.(*Sampler).tick", repo + "obs/sampler.go"}}, "obs"},
		{[]frame{{"main.(*fleetSink).Emit", "/src/perfbench/digest.go"}}, "perfbench"},
		// Innermost repo frame wins over runtime and standard-library frames.
		{[]frame{
			{"runtime.mallocgc", "/go/src/runtime/malloc.go"},
			{"loongserve/internal/kvcache.(*DistributedPool).Reserve", repo + "kvcache/kvcache.go"},
			{"loongserve/internal/baselines.(*ContBatch).admit", repo + "baselines/contbatch.go"},
		}, "kvcache"},
		{[]frame{
			{"encoding/json.Marshal", "/go/src/encoding/json/encode.go"},
			{"loongserve/internal/frontend.(*Server).streamCompletion", repo + "frontend/server.go"},
			{"net/http.(*conn).serve", "/go/src/net/http/server.go"},
		}, "frontend"},
		// The benchmark's HTTP client counts as http, its other code as perfbench.
		{[]frame{
			{"net/http.(*body).Read", "/go/src/net/http/transfer.go"},
			{"main.(*server).complete", "/src/perfbench/http.go"},
		}, "http"},
		{[]frame{{"main.(*fleetSink).Emit", "/src/perfbench/digest.go"},
			{"loongserve/internal/fleet.(*Gateway).emitFinish", repo + "fleet/obs.go"}}, "perfbench"},
		// No repo frame: the standard library's HTTP stack, then the collector.
		{[]frame{
			{"syscall.Syscall", "/go/src/syscall/syscall_linux.go"},
			{"net/http.(*persistConn).readLoop", "/go/src/net/http/transport.go"},
		}, "http"},
		{[]frame{{"runtime.scanobject", "/go/src/runtime/mgcmark.go"}, {"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"}}, "runtime.gc"},
		{[]frame{{"runtime.futex", "/go/src/runtime/sys_linux_amd64.s"}, {"runtime.mstart", "/go/src/runtime/proc.go"}}, "unattributed"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%s) = %q, want %q", c.stack[0].fn, got, c.want)
		}
	}
	known := make(map[string]bool)
	for _, m := range modules {
		known[m] = true
	}
	for _, c := range cases {
		if !known[c.want] {
			t.Errorf("%q is not a reported module", c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building profiles in tests.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}
func (b *pb) field(num int, v uint64) { b.varint(uint64(num) << 3); b.varint(v) }
func (b *pb) bytesField(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func TestParseProfile(t *testing.T) {
	var p pb
	strs := []string{"", "loongserve/internal/core.(*Engine).schedule", "/x/core/scheduler.go",
		"loongserve/internal/fleet.(*RadixCache).Lookup", "/x/fleet/radixcache.go", "main.main", "/x/perfbench/main.go"}
	// Functions 1..3, locations 1..2; location 2 holds an inlined pair
	// (radix inlined into main).
	for id, f := range [][2]uint64{{1, 2}, {3, 4}, {5, 6}} {
		var fn pb
		fn.field(1, uint64(id+1))
		fn.field(2, f[0])
		fn.field(4, f[1])
		p.bytesField(5, fn.Bytes())
	}
	loc := func(id uint64, funcs ...uint64) {
		var l pb
		l.field(1, id)
		for _, f := range funcs {
			var line pb
			line.field(1, f)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	loc(1, 1)
	loc(2, 2, 3)
	sample := func(locs []uint64, count, ns uint64, packed bool) {
		var s pb
		if packed {
			var ids pb
			for _, l := range locs {
				ids.varint(l)
			}
			s.bytesField(1, ids.Bytes())
		} else {
			for _, l := range locs {
				s.field(1, l)
			}
		}
		s.field(2, count)
		s.field(2, ns)
		p.bytesField(2, s.Bytes())
	}
	sample([]uint64{1, 2}, 3, 30e6, true) // core, called from inlined radix/main
	sample([]uint64{2}, 1, 10e6, false)   // radix inlined into main
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	shares, n, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("sample count %d, want 4", n)
	}
	want := map[string]float64{"core": 0.75, "fleet.radix": 0.25}
	for m, w := range want {
		if math.Abs(shares[m]-w) > 1e-9 {
			t.Errorf("%s share %v, want %v", m, shares[m], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares %v, want only %v", shares, want)
	}
}

func TestScaleAllocs(t *testing.T) {
	if got := scaleAllocs(10, 80, 1); got != 10 {
		t.Errorf("exact profile scaled to %v", got)
	}
	// Objects far larger than the sampling interval are always sampled.
	if got := scaleAllocs(10, 10<<20, 512); math.Abs(got-10) > 1e-6 {
		t.Errorf("large objects scaled to %v, want 10", got)
	}
	// Small objects are sampled with probability about size/rate.
	if got := scaleAllocs(1, 8, 512); got < 60 || got > 70 {
		t.Errorf("8-byte object scaled to %v, want about 64", got)
	}
}
