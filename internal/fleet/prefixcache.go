package fleet

// PrefixKey identifies a reusable KV prefix. Two key families exist:
// per-session keys (the conversation so far) and per-prompt-group keys
// (a system prompt shared by many sessions). The gateway keys its session
// tables by them and routing hashes them to a home replica; the TinyLFU
// sketch counts block hashes as PrefixKeys too. Zero is the absent key.
type PrefixKey uint64

// Family tags separating the two key spaces. They are XOR-mixed with the
// already-hashed id rather than OR-ed onto the raw id: OR-ing a tag into
// the high bits silently clobbers it for ids >= 2^48 (and for every
// negative id, whose two's-complement form fills the high bits), at which
// point SessionKey(a) and GroupKey(b) can collide for distinct identities.
const (
	sessionKeyTag = 0x5e55_0000_0000_0000
	groupKeyTag   = 0x6702_0000_0000_0000
)

// SessionKey returns the cache key for a session's accumulated context.
func SessionKey(sessionID int64) PrefixKey {
	if sessionID == 0 {
		return 0
	}
	return PrefixKey(mix64(sessionKeyTag ^ mix64(uint64(sessionID))))
}

// GroupKey returns the cache key for a shared system prompt family.
func GroupKey(group int) PrefixKey {
	if group == 0 {
		return 0
	}
	return PrefixKey(mix64(groupKeyTag ^ mix64(uint64(group))))
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash used
// for cache keys, sketch rows and replica home selection. Deterministic by
// construction — routing decisions must replay identically across runs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// freqSketch is a 4-row count-min sketch with 8-bit saturating counters
// and periodic halving (the TinyLFU aging mechanism), sized to the
// configured number of counters rounded up to a power of two. It estimates
// how often a key (a block hash, as a PrefixKey) has been requested, which
// radix and cold-tier admission compare between an incoming block and the
// eviction victim.
type freqSketch struct {
	rows  [4][]uint8
	mask  uint64
	incrs int
	reset int
}

func newFreqSketch(counters int) *freqSketch {
	if counters < 16 {
		counters = 16
	}
	w := 1
	for w < counters {
		w <<= 1
	}
	s := &freqSketch{mask: uint64(w - 1), reset: 8 * w}
	for i := range s.rows {
		s.rows[i] = make([]uint8, w)
	}
	return s
}

func (s *freqSketch) index(key PrefixKey, row int) uint64 {
	return mix64(uint64(key)+uint64(row)*0xa24b_1f2c_9d38_e57b) & s.mask
}

// touch records one access and ages the sketch when due.
func (s *freqSketch) touch(key PrefixKey) {
	for i := range s.rows {
		idx := s.index(key, i)
		if s.rows[i][idx] < 255 {
			s.rows[i][idx]++
		}
	}
	s.incrs++
	if s.incrs >= s.reset {
		s.age()
	}
}

// estimate returns the minimum counter over the rows.
func (s *freqSketch) estimate(key PrefixKey) int {
	est := 255
	for i := range s.rows {
		if v := int(s.rows[i][s.index(key, i)]); v < est {
			est = v
		}
	}
	return est
}

// age halves every counter so stale popularity decays.
func (s *freqSketch) age() {
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] >>= 1
		}
	}
	s.incrs = 0
}
