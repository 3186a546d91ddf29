package state

import (
	"math/rand"
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
