package stats

import (
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// The open-addressed cell table must behave exactly like a map under
// interleaved upserts and deletes — backward-shift deletion is the
// subtle part, so it gets a model-based test.
func TestCellTabMatchesMapModel(t *testing.T) {
	var tab cellTab
	model := map[tuple.Key]int64{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 200000; op++ {
		k := tuple.Key(rng.Intn(500)) // dense domain forces probe chains
		if rng.Intn(4) == 0 {
			tab.del(k)
			delete(model, k)
			continue
		}
		tab.upsert(k).cost++
		model[k]++
	}
	if tab.n != len(model) {
		t.Fatalf("table has %d live cells, model %d", tab.n, len(model))
	}
	seen := 0
	for i := range tab.cells {
		if c := &tab.cells[i]; c.live {
			seen++
			if model[c.key] != c.cost {
				t.Fatalf("key %d cost %d, model %d", c.key, c.cost, model[c.key])
			}
		}
	}
	if seen != len(model) {
		t.Fatalf("the table holds %d live cells, model %d", seen, len(model))
	}
	// Every model key must still be findable by probe (no broken chains).
	for k, want := range model {
		if got := tab.upsert(k).cost; got != want {
			t.Fatalf("lookup key %d cost %d, want %d", k, got, want)
		}
	}
}

func TestCellTabKeyZeroAndGrow(t *testing.T) {
	var tab cellTab
	tab.upsert(0).cost = 7 // key 0 must be a first-class citizen
	for k := tuple.Key(1); k < 10000; k++ {
		tab.upsert(k).cost = int64(k)
	}
	if tab.n != 10000 {
		t.Fatalf("n = %d after 10000 inserts", tab.n)
	}
	if got := tab.upsert(0).cost; got != 7 {
		t.Fatalf("key 0 cost %d after growth, want 7", got)
	}
	tab.del(0)
	if tab.n != 9999 {
		t.Fatalf("n = %d after delete", tab.n)
	}
	if got := tab.upsert(0).cost; got != 0 {
		t.Fatalf("deleted key 0 resurrected with cost %d", got)
	}
	tab.reset()
	if tab.n != 0 {
		t.Fatal("reset left live cells")
	}
	for i := range tab.cells {
		if tab.cells[i].live {
			t.Fatal("reset left a live cell")
		}
	}
}
