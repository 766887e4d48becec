package fleet

import "testing"

func TestPrefixCacheSketchAges(t *testing.T) {
	s := newFreqSketch(16)
	k := PrefixKey(42)
	for i := 0; i < 5; i++ {
		s.touch(k)
	}
	if s.estimate(k) < 5 {
		t.Fatalf("estimate %d after 5 touches", s.estimate(k))
	}
	before := s.estimate(k)
	s.age()
	if got := s.estimate(k); got != before/2 {
		t.Fatalf("aged estimate %d, want %d", got, before/2)
	}
}

func TestKeysDistinctAndStable(t *testing.T) {
	if SessionKey(0) != 0 || GroupKey(0) != 0 {
		t.Fatal("absent keys must be zero")
	}
	if SessionKey(1) == GroupKey(1) {
		t.Fatal("session and group key families collide")
	}
	if SessionKey(1) != SessionKey(1) || SessionKey(1) == SessionKey(2) {
		t.Fatal("session keys not stable/distinct")
	}
}

// TestKeyFamiliesNoCollisionOnWideIDs is the regression test for the
// OR-ed family tag: ids with bits in the tag range (>= 2^48, or any
// negative id, whose sign extension fills the high bits) used to clobber
// the tag, letting the two families collide. The id pairs below collide
// exactly under the historical `tag | uint64(id)` scheme — each id carries
// the *other* family's tag, so OR-ing produced the same word on both sides.
func TestKeyFamiliesNoCollisionOnWideIDs(t *testing.T) {
	pairs := []struct {
		session int64
		group   int
	}{
		{session: int64(groupKeyTag | 7), group: int(sessionKeyTag | 7)},
		{session: -1, group: -1}, // all-ones: OR with any tag is a no-op
		{session: -42, group: -42},
	}
	for _, p := range pairs {
		if SessionKey(p.session) == GroupKey(p.group) {
			t.Fatalf("SessionKey(%#x) == GroupKey(%#x)", p.session, p.group)
		}
	}
	// Wide ids must stay distinct within a family too: under the OR scheme
	// SessionKey(tag|x) and SessionKey(x) were the same key.
	if SessionKey(int64(sessionKeyTag|9)) == SessionKey(9) {
		t.Fatal("session ids differing only in tag-range bits collide")
	}
	if GroupKey(int(groupKeyTag|9)) == GroupKey(9) {
		t.Fatal("group ids differing only in tag-range bits collide")
	}
}
