package state

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// pair runs one Store and its reference model through the same calls.
type pair struct {
	name string
	s    *Store
	ref  *refStore
}

func newPair(name string, w int) *pair {
	return &pair{name: name, s: NewStore(w), ref: newRefStore(w)}
}

// check compares everything observable about the two stores over the
// key domain [0, keys), plus the store's own invariants: TotalSize is
// the sum of the per-key sizes, and no entry outside a live bucket
// still holds a value. The per-key pass comes first: Size makes the
// lazily pruning reference evict buckets that arrived already expired,
// which Store did on arrival (see refStore).
func (p *pair) check(t *testing.T, keys int, at string) {
	t.Helper()
	var sum int64
	for k := tuple.Key(0); k < tuple.Key(keys); k++ {
		got, want := p.s.Size(k), p.ref.Size(k)
		if got != want {
			t.Fatalf("%s %s: Size(%d) = %d, reference %d", at, p.name, k, got, want)
		}
		sum += got
		ge, we := p.s.Entries(k), p.ref.Entries(k)
		if !slices.Equal(ge, we) {
			t.Fatalf("%s %s: Entries(%d) = %v, reference %v", at, p.name, k, ge, we)
		}
	}
	if got := p.s.TotalSize(); got != sum || got != p.ref.TotalSize() {
		t.Fatalf("%s %s: TotalSize = %d, Σ Size(k) = %d, reference %d", at, p.name, got, sum, p.ref.TotalSize())
	}
	if got, want := p.s.KeyCount(), p.ref.KeyCount(); got != want {
		t.Fatalf("%s %s: KeyCount = %d, reference %d", at, p.name, got, want)
	}
	gk, wk := p.s.Keys(), p.ref.Keys()
	slices.Sort(gk)
	slices.Sort(wk)
	if !slices.Equal(gk, wk) {
		t.Fatalf("%s %s: Keys = %v, reference %v", at, p.name, gk, wk)
	}
	if msg := uncleared(p.s); msg != "" {
		t.Fatalf("%s %s: %s", at, p.name, msg)
	}
}

// uncleared reports the first entry outside any live bucket — expired,
// slid over, or sitting in a pooled run — that still holds a value, and
// any released key state that was not reset.
func uncleared(s *Store) string {
	for i := range s.states {
		ks := &s.states[i]
		for j, e := range ks.run[:cap(ks.run)] {
			if (j < ks.head || j >= len(ks.run)) && e.Value != nil {
				return fmt.Sprintf("key state %d (key %d): dead entry %d of run[%d:%d:%d] holds %v",
					i, ks.key, j, ks.head, len(ks.run), cap(ks.run), e.Value)
			}
		}
		if !ks.live && (ks.run != nil || len(ks.marks) != 0 || ks.added != 0 || ks.boxed) {
			return fmt.Sprintf("released key state %d not reset: %+v", i, *ks)
		}
	}
	for c, runs := range s.runs {
		for _, run := range runs {
			for j, e := range run[:cap(run)] {
				if e.Value != nil {
					return fmt.Sprintf("pooled run of class %d holds %v at %d", c, e.Value, j)
				}
			}
		}
	}
	return ""
}

// TestStoreMatchesReferenceModel drives two tasks' stores — each a Store
// beside the map-based reference — through random adds, closes and
// migrations, half of them through the codec, and requires every
// observable to agree after every step. Task B's clock is allowed to
// fall behind A's, so A receives buckets already older than its window
// (evicted on arrival) and B receives buckets ahead of its clock (the
// fresh-task-after-scale-out case, which holds the front of the list).
func TestStoreMatchesReferenceModel(t *testing.T) {
	const keys = 24
	for _, w := range []int{1, 5} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			a, b := newPair("A", w), newPair("B", w)
			skew := seed%2 == 0 // let B's clock lag on even seeds
			var val int64
			for op := 0; op < 4000; op++ {
				at := fmt.Sprintf("w=%d seed=%d op=%d", w, seed, op)
				p, q := a, b
				if rng.Intn(2) == 0 {
					p, q = b, a
				}
				k := tuple.Key(rng.Intn(keys))
				switch r := rng.Intn(20); {
				case r < 12:
					e := Entry{Size: int64(rng.Intn(9))}
					if k%2 == 0 { // odd keys stay value-free: the no-zeroing path
						val++
						e.Value = val
					}
					p.s.Add(k, e)
					p.ref.Add(k, e)
				case r < 15:
					a.s.EndInterval()
					a.ref.EndInterval()
					if !skew || rng.Intn(3) > 0 {
						b.s.EndInterval()
						b.ref.EndInterval()
					}
				default:
					m, rm := p.s.Extract(k), p.ref.Extract(k)
					if m.Key != rm.Key || m.Size != rm.Size || len(m.buckets) != len(rm.buckets) {
						t.Fatalf("%s: Extract(%d) = {%d %d, %d buckets}, reference {%d %d, %d buckets}",
							at, k, m.Key, m.Size, len(m.buckets), rm.Key, rm.Size, len(rm.buckets))
					}
					if r < 18 {
						payload, err := Codec{}.Encode(m, 7)
						if err != nil {
							t.Fatalf("%s: encode: %v", at, err)
						}
						var mem int64
						if m, mem, err = (Codec{}).Decode(payload); err != nil || mem != 7 {
							t.Fatalf("%s: decode: mem %d, err %v", at, mem, err)
						}
					}
					q.s.Inject(m)
					q.ref.Inject(rm)
				}
				a.check(t, keys, at)
				b.check(t, keys, at)
			}
			if a.s.Interval() == b.s.Interval() && skew {
				t.Fatalf("w=%d seed=%d: clocks never diverged", w, seed)
			}
		}
	}
}

// TestExpiredValuesCleared: a bucket that leaves the window must not
// leave its operator values behind in the run the key (or, once the key
// is released, the next key) goes on appending to.
func TestExpiredValuesCleared(t *testing.T) {
	s := NewStore(1)
	big := new([1 << 10]byte)
	for i := 0; i < 8; i++ {
		s.Add(1, Entry{Value: big, Size: 1})
		s.Add(2, Entry{Value: big, Size: 1})
	}
	s.EndInterval()
	s.Add(1, Entry{Value: "kept", Size: 1}) // key 1 stays live, key 2 expires
	s.EndInterval()
	if got := s.Entries(1); len(got) != 1 || got[0].Value != "kept" {
		t.Fatalf("Entries(1) = %v, want the one live entry", got)
	}
	if s.KeyCount() != 1 {
		t.Fatalf("KeyCount = %d, want 1 (key 2 expired)", s.KeyCount())
	}
	for i := range s.states {
		ks := &s.states[i]
		for j, e := range ks.run[:cap(ks.run)] {
			if p, ok := e.Value.(*[1 << 10]byte); ok && p == big {
				t.Fatalf("key state %d (live %v) still pins the expired value at run[%d]", i, ks.live, j)
			}
		}
	}
	if msg := uncleared(s); msg != "" {
		t.Fatal(msg)
	}
}

// TestSteadyStateIntervalAllocatesNothing: once the table, the runs and
// the per-interval lists have reached the working set's size, adding an
// interval's entries and closing it allocates nothing.
func TestSteadyStateIntervalAllocatesNothing(t *testing.T) {
	for _, w := range []int{1, 5} {
		s := NewStore(w)
		interval := func() {
			for k := tuple.Key(0); k < 200; k++ {
				for j := 0; j < 1+int(k%5); j++ {
					s.Add(k, Entry{Size: 1})
				}
			}
			s.EndInterval()
		}
		for i := 0; i < 8*(w+1); i++ {
			interval()
		}
		if n := testing.AllocsPerRun(50, interval); n != 0 {
			t.Fatalf("w=%d: %v allocations per steady-state interval, want 0", w, n)
		}
	}
}
