package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"path"
	"runtime"
	"sort"
	"strings"
)

// Attribution of host time and allocations to the repository's modules.
// Each profile sample goes to the innermost frame that belongs to a repo
// module. The benchmark's own frames count as the module perfbench, except
// that work it calls in net/http or encoding/json (its HTTP client) counts
// as http. A sample with no repo or benchmark frame goes to http when
// net/http or encoding/json is on its stack, to runtime.gc when a collector
// goroutine is, and to unattributed otherwise.

// modules are the layers every traced run reports, in report order.
var modules = []string{
	"simevent", "core", "costmodel", "kvcache", "cluster", "serving", "baselines",
	"fleet.gateway", "fleet.policy", "fleet.radix", "fleet.prefixcache", "fleet.directory",
	"fleet.coldtier", "fleet.shard", "fleet.sessions", "fleet.obs",
	"controlplane", "autoscale", "obs", "obs.analyze", "metrics", "workload",
	"frontend", "token", "seqparallel", "attention", "tensor", "model",
	"http", "runtime.gc", "perfbench", "unattributed",
}

// fleetFiles splits package fleet by source file. Files not listed (the
// gateway's lifecycle, faults, hedging and control-plane glue) belong to
// the gateway.
var fleetFiles = map[string]string{
	"policy.go":      "fleet.policy",
	"radixcache.go":  "fleet.radix",
	"radixindex.go":  "fleet.radix",
	"prefixcache.go": "fleet.prefixcache", // includes the TinyLFU sketch
	"lru.go":         "fleet.prefixcache",
	"directory.go":   "fleet.directory",
	"coldtier.go":    "fleet.coldtier",
	"shard.go":       "fleet.shard",
	"sessions.go":    "fleet.sessions",
	"obs.go":         "fleet.obs",
}

const repoPrefix = "loongserve/internal/"

// frame is one function activation on a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string
}

// funcPackage returns the import path of a qualified function name such as
// "loongserve/internal/fleet.(*Gateway).route".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// moduleOf maps one frame to a repo module, or "" for code outside the
// repository.
func moduleOf(f frame) string {
	pkg := funcPackage(f.fn)
	if pkg == "main" {
		return "perfbench" // the benchmark's own code
	}
	rel, ok := strings.CutPrefix(pkg, repoPrefix)
	if !ok {
		return ""
	}
	if rel == "fleet" {
		if m, ok := fleetFiles[path.Base(f.file)]; ok {
			return m
		}
		return "fleet.gateway"
	}
	return strings.ReplaceAll(rel, "/", ".")
}

// attribute assigns a stack (innermost frame first) to one module.
func attribute(stack []frame) string {
	inHTTP := false
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "net/http.") || strings.HasPrefix(f.fn, "encoding/json.") {
			inHTTP = true
			continue
		}
		switch m := moduleOf(f); {
		case m == "perfbench" && inHTTP:
			return "http"
		case m != "":
			return m
		}
	}
	if inHTTP {
		return "http"
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f.fn, "runtime.gc"), f.fn == "runtime.bgsweep", f.fn == "runtime.bgscavenge":
			return "runtime.gc"
		}
	}
	return "unattributed"
}

// --- CPU profiles ------------------------------------------------------

// cpuShares parses a gzipped pprof CPU profile and returns each module's
// share of sampled CPU time, plus the sample count.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	samples, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	total, count := 0.0, 0
	by := make(map[string]float64)
	for _, s := range samples {
		by[attribute(s.stack)] += s.value
		total += s.value
		count += s.count
	}
	if total == 0 {
		return nil, 0, errors.New("CPU profile has no samples")
	}
	for m := range by {
		by[m] /= total
	}
	return by, count, nil
}

// sample is one decoded profile record: a stack, how many samples hit it
// (the first sample value) and their weight (the last: CPU nanoseconds).
type sample struct {
	stack []frame
	count int
	value float64
}

// parseProfile decodes the subset of profile.proto that attribution needs:
// samples, locations with their (possibly inlined) lines, functions and
// the string table.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type fn struct{ name, file int64 }
	var (
		rawSamples []rawSample
		locLines   = make(map[uint64][]uint64) // location -> function ids, innermost first
		funcs      = make(map[uint64]fn)
		strs       []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // Location
			var id uint64
			var lines []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							lines = append(lines, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = lines
			return err
		case 5: // Function
			var id uint64
			var f fn
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{count: int(rs.values[0]), value: float64(rs.values[len(rs.values)-1])}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field number and
// either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped: profile.proto has none that attribution reads.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which the Go
// profile writer emits either packed (data) or one per field (v).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// --- allocation profiles ---------------------------------------------

// memSnapshot reads the runtime's cumulative allocation profile, forcing
// the two collections after which it reflects every allocation so far.
func memSnapshot() []runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:n]
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
}

// allocsByModule returns the estimated objects each module allocated
// between two snapshots taken at the given MemProfileRate.
func allocsByModule(before, after []runtime.MemProfileRecord, rate int) map[string]float64 {
	type key [32]uintptr
	prev := make(map[key][2]int64, len(before))
	for _, r := range before {
		prev[key(r.Stack0)] = [2]int64{r.AllocObjects, r.AllocBytes}
	}
	by := make(map[string]float64)
	for _, r := range after {
		p := prev[key(r.Stack0)]
		objs, bytes := r.AllocObjects-p[0], r.AllocBytes-p[1]
		if objs <= 0 {
			continue
		}
		by[attribute(stackFrames(r.Stack()))] += scaleAllocs(objs, bytes, rate)
	}
	return by
}

// scaleAllocs undoes the runtime's size-biased sampling: an allocation of
// s bytes is recorded with probability 1-exp(-s/rate).
func scaleAllocs(objs, bytes int64, rate int) float64 {
	avg := float64(bytes) / float64(objs)
	if rate <= 1 || avg <= 0 {
		return float64(objs)
	}
	return float64(objs) / (1 - math.Exp(-avg/float64(rate)))
}

// stackFrames resolves return PCs to frames, innermost first, expanding
// inlined calls.
func stackFrames(pcs []uintptr) []frame {
	var out []frame
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, frame{fn: f.Function, file: f.File})
		if !more {
			return out
		}
	}
}

// shareTable renders module shares, largest first, skipping zeros.
func shareTable(title string, m map[string]float64, unit string) string {
	names := make([]string, 0, len(m))
	for k, v := range m {
		if v != 0 {
			names = append(names, k)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "  %s:\n", title)
	for _, n := range names {
		fmt.Fprintf(&b, "    %-20s %12.4f %s\n", n, m[n], unit)
	}
	return b.String()
}
