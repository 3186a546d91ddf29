package state

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/tuple"
)

// idx returns k's record index, claiming one if the key has none.
func (d *Dir) idx(k tuple.Key) int32 {
	_, idx := d.acquire(k)
	return idx
}

// del releases k's key record, if it has one.
func (d *Dir) del(k tuple.Key) {
	if idx := d.find(k); idx >= 0 {
		d.release(k, idx)
	}
}

// The directory's key table must behave exactly like a map under
// interleaved inserts and deletes — backward-shift deletion is the
// subtle part, so it gets a model-based test.
func TestKeyTableMatchesMapModel(t *testing.T) {
	d := NewDir(1, 0)
	model := map[tuple.Key]int64{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 200000; op++ {
		k := tuple.Key(rng.Intn(500)) // dense domain forces probe chains
		if rng.Intn(4) == 0 {
			d.del(k)
			delete(model, k)
			continue
		}
		d.keys[d.idx(k)].win++
		model[k]++
	}
	if d.n != len(model) {
		t.Fatalf("table has %d keys, model %d", d.n, len(model))
	}
	seen := 0
	for _, sl := range d.slots {
		if sl.ref != 0 {
			seen++
			if kr := &d.keys[sl.ref-1]; model[sl.key] != kr.win {
				t.Fatalf("key %d count %d, model %d", sl.key, kr.win, model[sl.key])
			}
		}
	}
	if seen != len(model) {
		t.Fatalf("the table holds %d keys, model %d", seen, len(model))
	}
	// Every model key must still be findable by probe (no broken chains).
	for k, want := range model {
		if idx := d.find(k); idx < 0 || d.keys[idx].win != want {
			t.Fatalf("lookup key %d → %d, want count %d", k, idx, want)
		}
	}
}

func TestKeyTableKeyZeroAndGrow(t *testing.T) {
	d := NewDir(1, 0)
	d.keys[d.idx(0)].win = 7 // key 0 must be a first-class citizen
	for k := tuple.Key(1); k < 10000; k++ {
		d.keys[d.idx(k)].win = int64(k)
	}
	if d.n != 10000 {
		t.Fatalf("n = %d after 10000 inserts", d.n)
	}
	if got := d.keys[d.find(0)].win; got != 7 {
		t.Fatalf("key 0 count %d after growth, want 7", got)
	}
	d.del(0)
	if d.n != 9999 {
		t.Fatalf("n = %d after delete", d.n)
	}
	if d.find(0) >= 0 {
		t.Fatal("deleted key 0 still found")
	}
	if got := d.keys[d.idx(0)].win; got != 0 {
		t.Fatalf("deleted key 0 resurrected with count %d", got)
	}
}

// A key record is one cache line: packing a key must not grow it.
func TestKeyRecIsOneLine(t *testing.T) {
	if n := unsafe.Sizeof(keyRec{}); n != 64 {
		t.Fatalf("keyRec is %d bytes, want 64", n)
	}
}

// A key that moves out and back every interval leaves dead records in
// the lists it passed through: the removal marks them dead where they
// lie instead of compacting, and a list drops them when it leaves the
// window. So no list grows past the background keys' records plus the
// moving key's few per retained interval, and the key's entries stay
// those of a key that never moved. (Its window sum does not: an adopted
// sum sits in the last finished interval, see AdoptKey; the model tests
// pin it.)
func TestMovedKeyRecordsReclaimed(t *testing.T) {
	const background, moving = 40, tuple.Key(1000)
	for _, w := range []int{1, 5} {
		a, b, still := NewDir(w, 0), NewDir(w, 0), NewDir(w, 0)
		move := func(from, to *Dir) {
			from.Move([]tuple.Key{moving}, func(_ int, m Migrated, mem int64) {
				to.Store().Inject(m)
				if mem > 0 {
					to.AdoptKey(moving, mem)
				}
			})
		}
		add := func(d *Dir, k tuple.Key, size int64) {
			d.Store().Add(k, Entry{Value: size, Size: size})
			d.ObserveBatch([]tuple.Tuple{{Key: k, Cost: 1, StateSize: size}})
		}
		maxLen := 0
		for iv := 0; iv < 100; iv++ {
			for k := tuple.Key(0); k < background; k++ {
				add(a, k, 1)
				add(b, k, 1)
			}
			add(a, moving, int64(1+iv%3))
			add(still, moving, int64(1+iv%3))
			for _, d := range []*Dir{a, b, still} {
				d.Close()
			}
			// Out and back at the interval barrier, as a plan and its
			// reversal would move it.
			move(a, b)
			move(b, a)
			for _, d := range []*Dir{a, b} {
				for _, l := range d.lists {
					maxLen = max(maxLen, len(l))
				}
			}
			if got, want := a.Store().Entries(moving), still.Store().Entries(moving); !slices.Equal(got, want) {
				t.Fatalf("w=%d interval %d: moved key's entries %v, unmoved %v", w, iv, got, want)
			}
			if b.find(moving) >= 0 {
				t.Fatalf("w=%d interval %d: the key's record outlived its move back", w, iv)
			}
		}
		if bound := background + 4*(w+1); maxLen > bound {
			t.Fatalf("w=%d: a list reached %d records, bound %d", w, maxLen, bound)
		}
	}
}

// With more lists than a key record has list bits (w+1 > 8), lists
// share bits: the directory must still agree with the reference models.
func TestDirMatchesReferenceModelsWideWindow(t *testing.T) {
	for _, uniform := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			m := newModel(9, 24, uniform, seed%2 == 0, rand.New(rand.NewSource(seed*17)))
			for op := 0; op < 4000; op++ {
				m.dirStep(t, fmt.Sprintf("uniform=%v w=9 seed=%d op=%d", uniform, seed, op))
			}
		}
	}
}
