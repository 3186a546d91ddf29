package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// task is one task's key directory beside the two reference models its
// faces are pinned to. packed counts the checks that found a key packed.
type task struct {
	name   string
	d      *Dir
	rs     *refStore
	rt     *refTracker
	packed int
}

// peek returns k's live entries as Entries does, but builds a packed
// key's entries aside instead of giving the key its run, so a check
// leaves the store as it found it; packed reports the key's form.
func (s *Store) peek(k tuple.Key) (es []Entry, packed bool) {
	idx := s.Dir().find(k)
	if idx < 0 {
		return nil, false
	}
	kr := &s.keys[idx]
	if !kr.packed() {
		return kr.run[kr.head:len(kr.run):len(kr.run)], false
	}
	es = make([]Entry, -kr.head)
	for i := range es {
		es[i].Size = (kr.sealed + kr.pend) / int64(len(es))
	}
	return es, true
}

func newTask(name string, w int) *task {
	return &task{name: name, d: NewDir(w, 0), rs: newRefStore(w), rt: newRefTracker(w)}
}

// check compares everything observable about both faces over the key
// domain [0, keys), plus the directory's own invariants: TotalSize is
// the sum of the per-key sizes, and no entry outside a live bucket
// still holds a value. The per-key pass comes first: Size makes the
// lazily pruning reference evict buckets that arrived already expired,
// which the directory did on arrival (see refStore). It reads entries
// through peek, so packed keys stay packed.
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
		ge, packed := s.peek(k)
		if we := p.rs.Entries(k); !slices.Equal(ge, we) {
			t.Fatalf("%s %s: Entries(%d) = %v (packed %v), reference %v", at, p.name, k, ge, packed, we)
		}
		if packed {
			p.packed++
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

// source draws a model test's choices: a seeded generator, or a fuzz
// input's bytes (bytesSource).
type source interface{ Intn(n int) int }

// bytesSource draws each choice from the next input byte, 0 once the
// input is spent.
type bytesSource struct{ p []byte }

func (b *bytesSource) Intn(n int) int {
	if len(b.p) == 0 {
		return 0
	}
	v := int(b.p[0]) % n
	b.p = b.p[1:]
	return v
}

// model is two tasks — A and B, each a directory beside its reference
// models — and the choices that drive them. Even keys carry values;
// odd keys stay value-free (the no-zeroing path) and, when uniform,
// each keeps one size, so they stay packed across closes and
// migrations. B's clock may fall behind A's when skew is set.
type model struct {
	a, b          *task
	keys          int
	uniform, skew bool
	src           source
	val           int64
}

func newModel(w, keys int, uniform, skew bool, src source) *model {
	return &model{a: newTask("A", w), b: newTask("B", w), keys: keys, uniform: uniform, skew: skew, src: src}
}

// entry returns the next entry an operator adds for k.
func (m *model) entry(k tuple.Key) Entry {
	e := Entry{Size: int64(m.src.Intn(9))}
	switch {
	case k%2 == 0:
		m.val++
		e.Value = m.val
	case m.uniform:
		e.Size = int64(k % 7)
	}
	return e
}

// batch returns 1 to 6 tuples over the key domain.
func (m *model) batch() []tuple.Tuple {
	ts := make([]tuple.Tuple, 1+m.src.Intn(6))
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(m.src.Intn(m.keys)), Cost: int64(m.src.Intn(4)), StateSize: int64(m.src.Intn(6))}
	}
	return ts
}

// closeAll ends the interval on A, and on B unless its clock lags.
func (m *model) closeAll(t *testing.T, at string) {
	m.a.close(t, at)
	if !m.skew || m.src.Intn(3) > 0 {
		m.b.close(t, at)
	}
}

// read reads k's entries through Entries, which gives a packed key its
// run, and compares them with the reference.
func (m *model) read(t *testing.T, p *task, k tuple.Key, at string) {
	t.Helper()
	if got, want := p.d.Store().Entries(k), p.rs.Entries(k); !slices.Equal(got, want) {
		t.Fatalf("%s %s: Entries(%d) read = %v, reference %v", at, p.name, k, got, want)
	}
}

// migrate moves k's state from p to q — with its statistics (the
// window sum) when both — through the codec when viaCodec.
func (m *model) migrate(t *testing.T, p, q *task, k tuple.Key, both, viaCodec bool, at string) {
	t.Helper()
	var x Migrated
	var mem int64
	switch {
	case !both:
		x = p.d.Store().Extract(k)
	case m.src.Intn(2) == 0:
		p.d.Move([]tuple.Key{k}, func(_ int, y Migrated, ym int64) { x, mem = y, ym })
	default:
		x, mem = p.d.Store().Extract(k), p.d.WindowedMem(k)
		p.d.DropKey(k)
	}
	rx := p.rs.Extract(k)
	var rmem int64
	if both {
		rmem = p.rt.WindowedMem(k)
		p.rt.DropKey(k)
	}
	if x.Key != rx.Key || x.Size != rx.Size || len(x.buckets) != len(rx.buckets) || mem != rmem {
		t.Fatalf("%s: Extract(%d) = {%d %d, %d buckets, mem %d}, reference {%d %d, %d buckets, mem %d}",
			at, k, x.Key, x.Size, len(x.buckets), mem, rx.Key, rx.Size, len(rx.buckets), rmem)
	}
	if viaCodec {
		payload, err := Codec{}.Encode(x, mem)
		if err != nil {
			t.Fatalf("%s: encode: %v", at, err)
		}
		if want, err := (Codec{}).Encode(rx, rmem); err != nil || !bytes.Equal(payload, want) {
			t.Fatalf("%s: payload %x, reference %x (%v)", at, payload, want, err)
		}
		var dmem int64
		if x, dmem, err = (Codec{}).Decode(payload); err != nil || dmem != mem {
			t.Fatalf("%s: decode: mem %d (sent %d), err %v", at, dmem, mem, err)
		}
	}
	q.d.Store().Inject(x)
	q.rs.Inject(rx)
	if mem > 0 {
		q.d.AdoptKey(k, mem)
		q.rt.AdoptKey(k, rmem)
	}
}

// storeStep is one step on the state face alone: an Add, a close, a
// read, or a migration of the state, part of them through the codec.
func (m *model) storeStep(t *testing.T, at string) {
	p, q := m.a, m.b
	if m.src.Intn(2) == 0 {
		p, q = m.b, m.a
	}
	k := tuple.Key(m.src.Intn(m.keys))
	switch r := m.src.Intn(21); {
	case r < 12:
		e := m.entry(k)
		p.d.Store().Add(k, e)
		p.rs.Add(k, e)
	case r < 15:
		m.closeAll(t, at)
	case r == 20:
		m.read(t, p, k, at)
	default:
		m.migrate(t, p, q, k, false, r < 18, at)
	}
	m.a.check(t, m.keys, at)
	m.b.check(t, m.keys, at)
}

// dirStep is one step on both faces: operator Adds followed by the
// batch's observation, Adds and observations alone, split fold-backs,
// closes, reads, statistics leaving or arriving alone, and migrations
// that take the state, the statistics or both, part of them through the
// codec.
func (m *model) dirStep(t *testing.T, at string) {
	p, q := m.a, m.b
	if m.src.Intn(2) == 0 {
		p, q = m.b, m.a
	}
	k := tuple.Key(m.src.Intn(m.keys))
	switch r := m.src.Intn(41); {
	case r < 14: // the task loop: the operator adds, then the batch is observed
		ts := m.batch()
		for _, tp := range ts {
			e := m.entry(tp.Key)
			p.d.Store().Add(tp.Key, e)
			p.rs.Add(tp.Key, e)
		}
		p.d.ObserveBatch(ts)
		p.rt.ObserveBatch(ts)
	case r < 18: // an Add no tuple observes (an interval-close flush)
		e := m.entry(k)
		p.d.Store().Add(k, e)
		p.rs.Add(k, e)
	case r < 21: // tuples no operator stores
		ts := m.batch()
		p.d.ObserveBatch(ts)
		p.rt.ObserveBatch(ts)
	case r < 23:
		c, f, x := int64(m.src.Intn(20)), int64(m.src.Intn(5)), int64(m.src.Intn(30))
		p.d.AbsorbKey(k, c, f, x)
		p.rt.AbsorbKey(k, c, f, x)
	case r < 28:
		m.closeAll(t, at)
	case r < 30: // statistics alone leave or arrive
		if m.src.Intn(2) == 0 {
			p.d.DropKey(k)
			p.rt.DropKey(k)
		} else {
			x := int64(1 + m.src.Intn(50))
			p.d.AdoptKey(k, x)
			p.rt.AdoptKey(k, x)
		}
	case r == 40:
		m.read(t, p, k, at)
	default: // a migration: the state alone, or state and statistics
		m.migrate(t, p, q, k, r < 36, r%3 == 0, at)
	}
	m.a.check(t, m.keys, at)
	m.b.check(t, m.keys, at)
}

// runModels runs step over w ∈ {1, 5}, six seeds each, with sizes drawn
// at random and then uniform per odd key, and requires a check to have
// found a key packed and, where B's clock may lag, the clocks to have
// diverged. Task B's lagging clock makes A receive buckets already older
// than its window (evicted on arrival) and B receive buckets ahead of
// its clock (the fresh-task-after-scale-out case, which holds the front
// of the run).
func runModels(t *testing.T, step func(*model, *testing.T, string)) {
	const keys = 24
	packed := 0
	for _, uniform := range []bool{false, true} {
		for _, w := range []int{1, 5} {
			for seed := int64(1); seed <= 6; seed++ {
				skew := seed%2 == 0 // let B's clock lag on even seeds
				m := newModel(w, keys, uniform, skew, rand.New(rand.NewSource(seed*31+int64(w))))
				for op := 0; op < 4000; op++ {
					step(m, t, fmt.Sprintf("uniform=%v w=%d seed=%d op=%d", uniform, w, seed, op))
				}
				if m.a.d.Store().Interval() == m.b.d.Store().Interval() && skew {
					t.Fatalf("uniform=%v w=%d seed=%d: clocks never diverged", uniform, w, seed)
				}
				packed += m.a.packed + m.b.packed
			}
		}
	}
	if packed == 0 {
		t.Fatal("no check found a packed key")
	}
	t.Logf("%d checks found a key packed", packed)
}

// TestStoreMatchesReferenceModel drives the state face alone — two
// tasks' stores, each beside the map-based reference — through random
// adds, closes, reads and migrations, part of them through the codec,
// and requires every observable to agree after every step.
func TestStoreMatchesReferenceModel(t *testing.T) { runModels(t, (*model).storeStep) }

// TestDirMatchesReferenceModels drives two tasks' directories through
// both faces beside the map-based store and tracker (see dirStep), and
// requires every observable of both faces to agree after every step.
func TestDirMatchesReferenceModels(t *testing.T) { runModels(t, (*model).dirStep) }

// FuzzDirMatchesReference drives the two tasks of the model tests from
// the input's bytes: the first picks the window, whether odd keys keep
// one size and whether B's clock may lag; each further step (dirStep)
// takes its choices from the bytes that follow.
func FuzzDirMatchesReference(f *testing.F) {
	f.Add([]byte{0x07, 0, 1, 0, 3, 2, 7, 1, 9, 5, 0, 27, 1, 3, 33, 0, 40, 5, 26})
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) == 0 {
			return
		}
		src := &bytesSource{p: p[1:]}
		m := newModel(1+int(p[0]%5), 8, p[0]&8 != 0, p[0]&16 != 0, src)
		for op := 0; len(src.p) > 0; op++ {
			m.dirStep(t, fmt.Sprintf("step %d", op))
		}
	})
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
// carries the statistics or not, and whether the entries are counted
// (value-less, packed keys) or carry values (keys with runs).
func TestSteadyStateIntervalAllocatesNothing(t *testing.T) {
	ts := make([]tuple.Tuple, 0, 600)
	for k := tuple.Key(0); k < 200; k++ {
		for j := 0; j < 1+int(k%5); j++ {
			ts = append(ts, tuple.Tuple{Key: k, Cost: 1, StateSize: 1})
		}
	}
	for _, e := range []Entry{{Size: 1}, {Value: "v", Size: 1}} {
		for _, w := range []int{1, 5} {
			for _, observe := range []bool{false, true} {
				d := NewDir(w, 0)
				interval := func() {
					for lo := 0; lo < len(ts); lo += 128 {
						chunk := ts[lo:min(lo+128, len(ts))]
						for i := range chunk {
							d.Store().Add(chunk[i].Key, e)
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
					t.Fatalf("entry %+v w=%d observe=%v: %v allocations per steady-state interval, want 0", e, w, observe, n)
				}
			}
		}
	}
}
