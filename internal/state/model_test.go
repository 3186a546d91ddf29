package state

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// task is one task's key directory beside the two reference models its
// faces are pinned to.
type task struct {
	name string
	d    *Dir
	rs   *refStore
	rt   *refTracker
}

func newTask(name string, w int) *task {
	return &task{name: name, d: NewDir(w, 0), rs: newRefStore(w), rt: newRefTracker(w)}
}

// check compares everything observable about both faces over the key
// domain [0, keys), plus the directory's own invariants: TotalSize is
// the sum of the per-key sizes, and no entry outside a live bucket
// still holds a value. The per-key pass comes first: Size makes the
// lazily pruning reference evict buckets that arrived already expired,
// which the directory did on arrival (see refStore).
func (p *task) check(t *testing.T, keys int, at string) {
	t.Helper()
	s := p.d.Store()
	var sum int64
	for k := tuple.Key(0); k < tuple.Key(keys); k++ {
		got, want := s.Size(k), p.rs.Size(k)
		if got != want {
			t.Fatalf("%s %s: Size(%d) = %d, reference %d", at, p.name, k, got, want)
		}
		sum += got
		if ge, we := s.Entries(k), p.rs.Entries(k); !slices.Equal(ge, we) {
			t.Fatalf("%s %s: Entries(%d) = %v, reference %v", at, p.name, k, ge, we)
		}
		if a, b := p.d.WindowedMem(k), p.rt.WindowedMem(k); a != b {
			t.Fatalf("%s %s: WindowedMem(%d) = %d, reference %d", at, p.name, k, a, b)
		}
	}
	if got := s.TotalSize(); got != sum || got != p.rs.TotalSize() {
		t.Fatalf("%s %s: TotalSize = %d, Σ Size(k) = %d, reference %d", at, p.name, got, sum, p.rs.TotalSize())
	}
	if got, want := s.KeyCount(), p.rs.KeyCount(); got != want {
		t.Fatalf("%s %s: KeyCount = %d, reference %d", at, p.name, got, want)
	}
	gk, wk := s.Keys(), p.rs.Keys()
	slices.Sort(gk)
	slices.Sort(wk)
	if !slices.Equal(gk, wk) {
		t.Fatalf("%s %s: Keys = %v, reference %v", at, p.name, gk, wk)
	}
	if a, b := p.d.Keys(), p.rt.Keys(); !slices.Equal(a, b) {
		t.Fatalf("%s %s: statistics Keys = %v, reference %v", at, p.name, a, b)
	}
	if msg := uncleared(p.d); msg != "" {
		t.Fatalf("%s %s: %s", at, p.name, msg)
	}
}

// close ends the interval on both faces and compares the tallies with
// the reference tracker's report.
func (p *task) close(t *testing.T, at string) {
	t.Helper()
	got, want := p.d.Close(), p.rt.EndInterval()
	p.rs.EndInterval()
	if len(got) != len(want) {
		t.Fatalf("%s %s: close tallies %d keys, reference %d", at, p.name, len(got), len(want))
	}
	for _, ta := range got {
		if ta != want[ta.Key] {
			t.Fatalf("%s %s: tally %+v, reference %+v", at, p.name, ta, want[ta.Key])
		}
	}
}

// uncleared reports the first entry outside any live bucket — expired,
// slid over, or sitting in a pooled run — that still holds a value, and
// any released key record that was not reset.
func uncleared(d *Dir) string {
	for i := range d.keys {
		kr := &d.keys[i]
		for j, e := range kr.run[:cap(kr.run)] {
			if (j < int(kr.head) || j >= len(kr.run)) && e.Value != nil {
				return fmt.Sprintf("key record %d: dead entry %d of run[%d:%d:%d] holds %v",
					i, j, kr.head, len(kr.run), cap(kr.run), e.Value)
			}
		}
	}
	for _, i := range d.free {
		if kr := &d.keys[i]; kr.run != nil || kr.ent != 0 || kr.head != 0 || kr.nrec != 0 || kr.bits != 0 || kr.pend != 0 || kr.sealed != 0 || kr.win != 0 {
			return fmt.Sprintf("released key record %d not reset: %+v", i, *kr)
		}
	}
	for c, runs := range d.runs {
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

// TestStoreMatchesReferenceModel drives the state face alone — two
// tasks' stores, each beside the map-based reference — through random
// adds, closes and migrations, half of them through the codec, and
// requires every observable to agree after every step. Task B's clock is
// allowed to fall behind A's, so A receives buckets already older than
// its window (evicted on arrival) and B receives buckets ahead of its
// clock (the fresh-task-after-scale-out case, which holds the front of
// the run).
func TestStoreMatchesReferenceModel(t *testing.T) {
	const keys = 24
	for _, w := range []int{1, 5} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			a, b := newTask("A", w), newTask("B", w)
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
					p.d.Store().Add(k, e)
					p.rs.Add(k, e)
				case r < 15:
					a.d.Store().EndInterval()
					a.rs.EndInterval()
					if !skew || rng.Intn(3) > 0 {
						b.d.Store().EndInterval()
						b.rs.EndInterval()
					}
				default:
					m, rm := p.d.Store().Extract(k), p.rs.Extract(k)
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
					q.d.Store().Inject(m)
					q.rs.Inject(rm)
				}
				a.check(t, keys, at)
				b.check(t, keys, at)
			}
			if a.d.Store().Interval() == b.d.Store().Interval() && skew {
				t.Fatalf("w=%d seed=%d: clocks never diverged", w, seed)
			}
		}
	}
}

// TestDirMatchesReferenceModels drives two tasks' directories through
// both faces — operator Adds followed by the batch's observation,
// Adds and observations alone, split fold-backs, closes, and
// migrations that take the state, the statistics or both (half of them
// through the codec) — beside the map-based store and tracker, and
// requires every observable of both faces to agree after every step.
// Task B's clock is allowed to fall behind A's, so A receives buckets
// already older than its window (evicted on arrival) and B receives
// buckets ahead of its clock (the fresh-task-after-scale-out case,
// which holds the front of the run).
func TestDirMatchesReferenceModels(t *testing.T) {
	const keys = 24
	for _, w := range []int{1, 5} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			a, b := newTask("A", w), newTask("B", w)
			skew := seed%2 == 0 // let B's clock lag on even seeds
			var val int64
			entry := func(k tuple.Key) Entry {
				e := Entry{Size: int64(rng.Intn(9))}
				if k%2 == 0 { // odd keys stay value-free: the no-zeroing path
					val++
					e.Value = val
				}
				return e
			}
			batch := func() []tuple.Tuple {
				ts := make([]tuple.Tuple, 1+rng.Intn(6))
				for i := range ts {
					ts[i] = tuple.Tuple{Key: tuple.Key(rng.Intn(keys)), Cost: int64(rng.Intn(4)), StateSize: int64(rng.Intn(6))}
				}
				return ts
			}
			for op := 0; op < 4000; op++ {
				at := fmt.Sprintf("w=%d seed=%d op=%d", w, seed, op)
				p, q := a, b
				if rng.Intn(2) == 0 {
					p, q = b, a
				}
				k := tuple.Key(rng.Intn(keys))
				switch r := rng.Intn(40); {
				case r < 14: // the task loop: the operator adds, then the batch is observed
					ts := batch()
					for _, tp := range ts {
						e := entry(tp.Key)
						p.d.Store().Add(tp.Key, e)
						p.rs.Add(tp.Key, e)
					}
					p.d.ObserveBatch(ts)
					p.rt.ObserveBatch(ts)
				case r < 18: // an Add no tuple observes (an interval-close flush)
					e := entry(k)
					p.d.Store().Add(k, e)
					p.rs.Add(k, e)
				case r < 21: // tuples no operator stores
					ts := batch()
					p.d.ObserveBatch(ts)
					p.rt.ObserveBatch(ts)
				case r < 23:
					c, f, m := int64(rng.Intn(20)), int64(rng.Intn(5)), int64(rng.Intn(30))
					p.d.AbsorbKey(k, c, f, m)
					p.rt.AbsorbKey(k, c, f, m)
				case r < 28:
					a.close(t, at)
					if !skew || rng.Intn(3) > 0 {
						b.close(t, at)
					}
				case r < 30: // statistics alone leave or arrive
					if rng.Intn(2) == 0 {
						p.d.DropKey(k)
						p.rt.DropKey(k)
					} else {
						m := int64(1 + rng.Intn(50))
						p.d.AdoptKey(k, m)
						p.rt.AdoptKey(k, m)
					}
				default: // a migration: the state alone, or state and statistics
					both := r < 36
					var m Migrated
					var mem int64
					switch {
					case !both:
						m = p.d.Store().Extract(k)
					case r%2 == 0:
						p.d.Move([]tuple.Key{k}, func(_ int, x Migrated, xm int64) { m, mem = x, xm })
					default:
						m, mem = p.d.Store().Extract(k), p.d.WindowedMem(k)
						p.d.DropKey(k)
					}
					rm := p.rs.Extract(k)
					var rmem int64
					if both {
						rmem = p.rt.WindowedMem(k)
						p.rt.DropKey(k)
					}
					if m.Key != rm.Key || m.Size != rm.Size || len(m.buckets) != len(rm.buckets) || mem != rmem {
						t.Fatalf("%s: Extract(%d) = {%d %d, %d buckets, mem %d}, reference {%d %d, %d buckets, mem %d}",
							at, k, m.Key, m.Size, len(m.buckets), mem, rm.Key, rm.Size, len(rm.buckets), rmem)
					}
					if r%3 == 0 {
						payload, err := Codec{}.Encode(m, mem)
						if err != nil {
							t.Fatalf("%s: encode: %v", at, err)
						}
						var dmem int64
						if m, dmem, err = (Codec{}).Decode(payload); err != nil || dmem != mem {
							t.Fatalf("%s: decode: mem %d (sent %d), err %v", at, dmem, mem, err)
						}
					}
					q.d.Store().Inject(m)
					q.rs.Inject(rm)
					if mem > 0 {
						q.d.AdoptKey(k, mem)
						q.rt.AdoptKey(k, rmem)
					}
				}
				a.check(t, keys, at)
				b.check(t, keys, at)
			}
			if a.d.Store().Interval() == b.d.Store().Interval() && skew {
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
	for i := range s.keys {
		kr := &s.keys[i]
		for j, e := range kr.run[:cap(kr.run)] {
			if p, ok := e.Value.(*[1 << 10]byte); ok && p == big {
				t.Fatalf("key record %d (live %v) still pins the expired value at run[%d]", i, kr.hasState(), j)
			}
		}
	}
	if msg := uncleared(s.Dir()); msg != "" {
		t.Fatal(msg)
	}
}

// TestSteadyStateIntervalAllocatesNothing: once the table, the runs and
// the per-interval lists have reached the working set's size, a task's
// interval — the operator's Adds, the batch observations, the close of
// both faces — allocates nothing, whether the store's directory also
// carries the statistics or not.
func TestSteadyStateIntervalAllocatesNothing(t *testing.T) {
	ts := make([]tuple.Tuple, 0, 600)
	for k := tuple.Key(0); k < 200; k++ {
		for j := 0; j < 1+int(k%5); j++ {
			ts = append(ts, tuple.Tuple{Key: k, Cost: 1, StateSize: 1})
		}
	}
	for _, w := range []int{1, 5} {
		for _, observe := range []bool{false, true} {
			d := NewDir(w, 0)
			interval := func() {
				for lo := 0; lo < len(ts); lo += 128 {
					chunk := ts[lo:min(lo+128, len(ts))]
					for i := range chunk {
						d.Store().Add(chunk[i].Key, Entry{Size: 1})
					}
					if observe {
						d.ObserveBatch(chunk)
					}
				}
				d.Close()
			}
			for i := 0; i < 8*(w+1); i++ {
				interval()
			}
			if n := testing.AllocsPerRun(50, interval); n != 0 {
				t.Fatalf("w=%d observe=%v: %v allocations per steady-state interval, want 0", w, observe, n)
			}
		}
	}
}
