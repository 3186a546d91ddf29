package state

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

// Accessors only this package's tests read.

// NewStore creates a store with a retention window of w intervals
// (w < 1 clamps to 1) on a directory of its own, its clock at 0.
func NewStore(w int) *Store { return NewDir(w, 0).Store() }

// Window returns w.
func (s *Store) Window() int { return s.window }

// Size returns S(k, w): the key's live state size.
func (s *Store) Size(k tuple.Key) int64 {
	idx := s.Dir().find(k)
	if idx < 0 {
		return 0
	}
	return s.keys[idx].sealed + s.keys[idx].pend
}

// KeyCount returns the number of keys holding live state.
func (s *Store) KeyCount() int { return s.live }

// EndInterval closes the interval, discarding the statistics.
func (s *Store) EndInterval() { s.Dir().Close() }

// Extract removes and returns key k's entire windowed state; its
// statistics stay.
func (s *Store) Extract(k tuple.Key) Migrated {
	var m Migrated
	s.Dir().remove([]tuple.Key{k}, bucketFlags, func(_ int, x Migrated, _ int64) { m = x })
	return m
}

// WindowedMem returns S(k, w) over the finished intervals in the window.
func (d *Dir) WindowedMem(k tuple.Key) int64 {
	if idx := d.find(k); idx >= 0 {
		return d.keys[idx].win
	}
	return 0
}

// DropKey forgets k's statistics; its buckets stay.
func (d *Dir) DropKey(k tuple.Key) { d.remove([]tuple.Key{k}, statFlags, nil) }

func TestAddAndEntries(t *testing.T) {
	s := NewStore(2)
	s.Add(1, Entry{Value: "a", Size: 2})
	s.Add(1, Entry{Value: "b", Size: 3})
	es := s.Entries(1)
	if len(es) != 2 || es[0].Value != "a" || es[1].Value != "b" {
		t.Fatalf("Entries = %v", es)
	}
	if s.Size(1) != 5 {
		t.Fatalf("Size = %d, want 5", s.Size(1))
	}
	if s.TotalSize() != 5 {
		t.Fatalf("TotalSize = %d, want 5", s.TotalSize())
	}
}

func TestWindowEviction(t *testing.T) {
	// w = 2: state from interval i−2 disappears once interval i starts.
	s := NewStore(2)
	s.Add(1, Entry{Size: 10}) // interval 0
	s.EndInterval()
	s.Add(1, Entry{Size: 20}) // interval 1
	s.EndInterval()
	if got := s.Size(1); got != 30 {
		t.Fatalf("window sum = %d, want 30", got)
	}
	s.EndInterval() // interval 0 evicted
	if got := s.Size(1); got != 20 {
		t.Fatalf("after eviction = %d, want 20", got)
	}
	s.EndInterval() // all gone
	if got := s.Size(1); got != 0 {
		t.Fatalf("after full eviction = %d, want 0", got)
	}
	if s.KeyCount() != 0 {
		t.Fatalf("KeyCount = %d, want 0 after eviction", s.KeyCount())
	}
}

func TestWindowOneIsInstantaneous(t *testing.T) {
	s := NewStore(1)
	s.Add(1, Entry{Size: 7})
	if got := s.Size(1); got != 7 {
		t.Fatalf("current-interval size = %d, want 7", got)
	}
	s.EndInterval()
	if got := s.Size(1); got != 7 {
		t.Fatalf("size one interval later = %d, want 7 (w=1 keeps last interval)", got)
	}
	s.EndInterval()
	if got := s.Size(1); got != 0 {
		t.Fatalf("size two intervals later = %d, want 0", got)
	}
}

func TestExtractInjectRoundTrip(t *testing.T) {
	src, dst := NewStore(3), NewStore(3)
	src.Add(5, Entry{Value: 1, Size: 4})
	src.EndInterval()
	dst.EndInterval()
	src.Add(5, Entry{Value: 2, Size: 6})

	m := src.Extract(5)
	if m.Size != 10 {
		t.Fatalf("Migrated.Size = %d, want 10", m.Size)
	}
	if src.Size(5) != 0 || src.TotalSize() != 0 {
		t.Fatal("source retains state after Extract")
	}
	dst.Inject(m)
	if dst.Size(5) != 10 {
		t.Fatalf("dest size = %d, want 10", dst.Size(5))
	}
	es := dst.Entries(5)
	if len(es) != 2 {
		t.Fatalf("dest entries = %d, want 2", len(es))
	}
	// Window semantics survive migration: the newest bucket was written
	// during interval 1, so it lives through finished intervals 1..3
	// (w = 3) and is erased once interval 4 completes.
	for i := 0; i < 4; i++ {
		dst.EndInterval()
	}
	if got := dst.Size(5); got != 0 {
		t.Fatalf("migrated state not evicted by window: %d", got)
	}
}

func TestExtractMissingKeyIsFree(t *testing.T) {
	s := NewStore(1)
	m := s.Extract(99)
	if m.Size != 0 {
		t.Fatalf("missing key migration size = %d, want 0", m.Size)
	}
	s.Inject(m) // no-op, must not panic
}

func TestInjectMergesSameInterval(t *testing.T) {
	// Both stores accumulated state for the same key in the same
	// interval (possible transiently around a replan); inject must
	// merge buckets, not duplicate intervals.
	a, b := NewStore(2), NewStore(2)
	a.Add(1, Entry{Value: "a", Size: 1})
	b.Add(1, Entry{Value: "b", Size: 2})
	m := a.Extract(1)
	b.Inject(m)
	if got := b.Size(1); got != 3 {
		t.Fatalf("merged size = %d, want 3", got)
	}
	if es := b.Entries(1); len(es) != 2 {
		t.Fatalf("merged entries = %d, want 2", len(es))
	}
}

func TestTotalSizeTracksAllKeys(t *testing.T) {
	s := NewStore(2)
	for k := tuple.Key(0); k < 10; k++ {
		s.Add(k, Entry{Size: int64(k) + 1})
	}
	if got := s.TotalSize(); got != 55 {
		t.Fatalf("TotalSize = %d, want 55", got)
	}
	s.Extract(9)
	if got := s.TotalSize(); got != 45 {
		t.Fatalf("TotalSize after extract = %d, want 45", got)
	}
}

func TestKeysListing(t *testing.T) {
	s := NewStore(1)
	s.Add(3, Entry{Size: 1})
	s.Add(8, Entry{Size: 1})
	ks := s.Keys()
	if len(ks) != 2 {
		t.Fatalf("Keys = %v", ks)
	}
}

func TestWindowClamp(t *testing.T) {
	if NewStore(0).Window() != 1 {
		t.Fatal("window 0 not clamped")
	}
	if NewStore(-5).Window() != 1 {
		t.Fatal("negative window not clamped")
	}
}

// Property: TotalSize always equals the sum of per-key sizes, across a
// random sequence of add/extract/inject/rotate operations.
func TestTotalSizeInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(1 + rng.Intn(4))
		other := NewStore(s.Window())
		for op := 0; op < 300; op++ {
			k := tuple.Key(rng.Intn(12))
			switch rng.Intn(5) {
			case 0, 1, 2:
				s.Add(k, Entry{Size: int64(1 + rng.Intn(9))})
			case 3:
				m := s.Extract(k)
				other.Inject(m)
			case 4:
				s.EndInterval()
				other.EndInterval()
			}
		}
		var sum int64
		for _, k := range s.Keys() {
			sum += s.Size(k)
		}
		return sum == s.TotalSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringer(t *testing.T) {
	s := NewStore(2)
	s.Add(1, Entry{Size: 3})
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}

func TestIntervalCounter(t *testing.T) {
	s := NewStore(2)
	if s.Interval() != 0 {
		t.Fatal("fresh store interval not 0")
	}
	s.EndInterval()
	s.EndInterval()
	if s.Interval() != 2 {
		t.Fatalf("Interval = %d, want 2", s.Interval())
	}
}

// TestValuelessKeysKeepNoRun: a key fed value-less entries of one size
// holds no entry run and allocates nothing across closes; reading it,
// extracting it and encoding the extract give exactly what the
// map-based reference gives for the same calls, and an entry with a
// value or of another size leaves exactly the reference's entries.
func TestValuelessKeysKeepNoRun(t *testing.T) {
	const w = 3
	d, ref := NewDir(w, 0), newRefStore(w)
	s := d.Store()
	keys := []tuple.Key{1, 2, 3, 4}
	run := func(k tuple.Key) []Entry { return s.keys[s.Dir().find(k)].run }
	add := func(add func(tuple.Key, Entry), end func()) func() {
		return func() {
			for _, k := range keys {
				for j := 0; j < 5; j++ {
					add(k, Entry{Size: 1})
				}
			}
			end()
		}
	}
	interval, refInterval := add(s.Add, func() { d.Close() }), add(ref.Add, ref.EndInterval)
	for i := 0; i < w+3; i++ {
		interval()
		refInterval()
		for _, k := range keys {
			if run(k) != nil {
				t.Fatalf("interval %d: key %d holds a run of %d entries", i, k, len(run(k)))
			}
		}
	}
	if n := testing.AllocsPerRun(20, interval); n != 0 {
		t.Fatalf("%v allocations per interval of packed keys, want 0", n)
	}
	for i := 0; i < 21; i++ { // AllocsPerRun's warm-up run and its 20
		refInterval()
	}
	if s.Interval() != ref.interval {
		t.Fatalf("clock %d, reference %d", s.Interval(), ref.interval)
	}
	for _, k := range keys {
		if s.Size(k) != ref.Size(k) || s.Size(k) != int64(5*w) {
			t.Fatalf("Size(%d) = %d, reference %d", k, s.Size(k), ref.Size(k))
		}
	}
	if got, want := s.Entries(1), ref.Entries(1); !slices.Equal(got, want) || run(1) == nil {
		t.Fatalf("Entries(1) = %v, reference %v", got, want)
	}
	m, rm := s.Extract(2), ref.Extract(2)
	if !reflect.DeepEqual(m, rm) {
		t.Fatalf("Extract(2) = %+v, reference %+v", m, rm)
	}
	p, err := Codec{}.Encode(m, 9)
	rp, rerr := Codec{}.Encode(rm, 9)
	if err != nil || rerr != nil || !bytes.Equal(p, rp) {
		t.Fatalf("payload %x (%v), reference %x (%v)", p, err, rp, rerr)
	}
	for _, e := range []struct {
		k tuple.Key
		e Entry
	}{{3, Entry{Value: "boxed", Size: 1}}, {4, Entry{Size: 2}}} {
		s.Add(e.k, e.e)
		ref.Add(e.k, e.e)
		if got, want := s.Entries(e.k), ref.Entries(e.k); !slices.Equal(got, want) || len(got) != 5*w+1 {
			t.Fatalf("Entries(%d) after adding %+v = %v, reference %v", e.k, e.e, got, want)
		}
	}
}

// TestLargeSizesNeverPackWrongly: entry sizes whose multiples overflow
// int64 must not be taken for the size a key already packs — nor make
// the count disagree with the sum — and keep exactly the reference's
// entries.
func TestLargeSizesNeverPackWrongly(t *testing.T) {
	half := int64(math.MaxInt64/2 + 1) // 2⁶², four of which wrap to 0
	for _, sizes := range [][]int64{
		{half, half, half},
		{math.MaxInt64 / 2, math.MaxInt64 / 2},
		{0, 0, 0, 0, half},
		{1, 1, math.MinInt64 + 1}, // 2·(MinInt64+1) wraps to 2
		{-half, -half, -half, -half, 7},
		{1 << 32, 1 << 32},
		{1<<32 - 1, 1<<32 - 1, 1<<32 - 1},
	} {
		s, ref := NewStore(2), newRefStore(2)
		for i, size := range sizes {
			s.Add(1, Entry{Size: size})
			ref.Add(1, Entry{Size: size})
			if i == len(sizes)/2 {
				s.EndInterval()
				ref.EndInterval()
			}
		}
		if s.Size(1) != ref.Size(1) {
			t.Fatalf("sizes %v: Size = %d, reference %d", sizes, s.Size(1), ref.Size(1))
		}
		if got, want := s.Entries(1), ref.Entries(1); !slices.Equal(got, want) {
			t.Fatalf("sizes %v: Entries = %v, reference %v", sizes, got, want)
		}
	}
}
