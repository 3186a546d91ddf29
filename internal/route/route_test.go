package route

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/hashring"
	"repro/internal/tuple"
)

func TestMixedRoutingSemantics(t *testing.T) {
	// Eq. 1: F(k) = A[k] when present, else h(k).
	tab := NewTable()
	tab.Put(5, 3)
	a := NewAssignment(tab, ModHasher(4))
	if got := a.Dest(5); got != 3 {
		t.Fatalf("routed key dest = %d, want 3", got)
	}
	if got := a.Dest(6); got != 2 { // 6 mod 4
		t.Fatalf("hashed key dest = %d, want 2", got)
	}
	if got := a.HashDest(5); got != 1 { // 5 mod 4, table ignored
		t.Fatalf("HashDest = %d, want 1", got)
	}
}

func TestAssignmentTotalFunction(t *testing.T) {
	// Property: F is total and in-range for any key.
	a := NewAssignment(NewTable(), hashring.New(9, 0))
	f := func(k uint64) bool {
		d := a.Dest(tuple.Key(k))
		return d >= 0 && d < 9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestNilTableMeansPureHashing(t *testing.T) {
	a := NewAssignment(nil, ModHasher(3))
	for k := tuple.Key(0); k < 30; k++ {
		if a.Dest(k) != a.HashDest(k) {
			t.Fatal("nil-table assignment deviated from hash")
		}
	}
	if a.Table().Len() != 0 {
		t.Fatal("nil table not empty")
	}
}

func TestTableOps(t *testing.T) {
	tab := NewTable()
	tab.Put(1, 0)
	tab.Put(2, 1)
	tab.Put(1, 2) // overwrite
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if d, ok := tab.Lookup(1); !ok || d != 2 {
		t.Fatalf("Lookup(1) = %d,%v, want 2,true", d, ok)
	}
	tab.Delete(1)
	if _, ok := tab.Lookup(1); ok {
		t.Fatal("Delete did not remove entry")
	}
	tab.Delete(99) // absent key: no-op
}

func TestTableKeysSorted(t *testing.T) {
	tab := NewTable()
	for _, k := range []tuple.Key{9, 3, 7, 1} {
		tab.Put(k, 0)
	}
	ks := tab.Keys()
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("Keys not ascending: %v", ks)
		}
	}
}

func TestTableCloneIsDeep(t *testing.T) {
	tab := NewTable()
	tab.Put(1, 1)
	c := tab.Clone()
	c.Put(2, 2)
	if tab.Len() != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// Delta computes Δ(F, F′) over the given key universe: the set of keys
// whose destination differs between the two assignments (§II-A). Only
// keys present in either routing table can differ when both assignments
// share the same hasher, so the scan is restricted to that union rather
// than the full key domain.
func Delta(old, new *Assignment, extra []tuple.Key) []tuple.Key {
	seen := make(map[tuple.Key]struct{})
	var out []tuple.Key
	check := func(k tuple.Key) {
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		if old.Dest(k) != new.Dest(k) {
			out = append(out, k)
		}
	}
	for k := range old.table.m {
		check(k)
	}
	for k := range new.table.m {
		check(k)
	}
	for _, k := range extra {
		check(k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
func TestDelta(t *testing.T) {
	h := ModHasher(4)
	oldTab := NewTable()
	oldTab.Put(1, 3) // h(1)=1, routed to 3
	oldTab.Put(2, 3) // h(2)=2, routed to 3
	newTab := NewTable()
	newTab.Put(1, 3) // unchanged
	newTab.Put(8, 1) // h(8)=0, now routed to 1
	oldA, newA := NewAssignment(oldTab, h), NewAssignment(newTab, h)

	d := Delta(oldA, newA, nil)
	// key 2: old 3, new h(2)=2 → moved. key 8: old h=0, new 1 → moved.
	// key 1: 3 both → unmoved.
	want := []tuple.Key{2, 8}
	if len(d) != len(want) {
		t.Fatalf("Delta = %v, want %v", d, want)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Delta = %v, want %v", d, want)
		}
	}
}

func TestDeltaWithExtraKeys(t *testing.T) {
	// Extra keys outside both tables never differ when hashers match.
	h := ModHasher(4)
	oldA := NewAssignment(NewTable(), h)
	newA := NewAssignment(NewTable(), h)
	d := Delta(oldA, newA, []tuple.Key{10, 11, 12})
	if len(d) != 0 {
		t.Fatalf("Delta over identical assignments = %v, want empty", d)
	}
}

func TestDeltaAcrossHasherChange(t *testing.T) {
	// Scale-out: hashers differ; extra keys catch hash-induced moves.
	oldA := NewAssignment(NewTable(), ModHasher(2))
	newA := NewAssignment(NewTable(), ModHasher(3))
	d := Delta(oldA, newA, []tuple.Key{0, 1, 2, 3, 4, 5})
	// k mod 2 vs k mod 3 differ for 2 (0→2), 3 (1→0), 4 (0→1), 5 (1→2).
	want := map[tuple.Key]bool{2: true, 3: true, 4: true, 5: true}
	if len(d) != len(want) {
		t.Fatalf("Delta = %v, want keys 2,3,4,5", d)
	}
	for _, k := range d {
		if !want[k] {
			t.Fatalf("unexpected key %d in Delta %v", k, d)
		}
	}
}

func TestInstances(t *testing.T) {
	a := NewAssignment(NewTable(), ModHasher(7))
	if a.Instances() != 7 {
		t.Fatalf("Instances = %d, want 7", a.Instances())
	}
}

// TestDestTuplesMatchesDest pins the one-pass batch kernel against
// per-key Dest: on a fixed table and on random ones of 0–500 entries,
// over the ring (the inlined probe-then-hash loop, or the ring's own
// batch loop when the table is empty) and over a hasher that is not a
// ring (the per-key fallback), at every batch size up to past a chunk's
// length. Slots past the batch stay untouched.
func TestDestTuplesMatchesDest(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const nd, maxBatch = 5, 300
	fixed := NewTable()
	for k := tuple.Key(0); k < 50; k += 7 {
		fixed.Put(k, int(k)%nd)
	}
	tables := []*Table{fixed}
	for _, entries := range []int{0, 1, 32, 500} {
		tab := NewTable()
		for tab.Len() < entries {
			tab.Put(tuple.Key(rng.Intn(2000)), rng.Intn(nd))
		}
		tables = append(tables, tab)
	}
	ts := make([]tuple.Tuple, maxBatch)
	tuples := make([]int, maxBatch)
	for _, tab := range tables {
		for _, h := range []Hasher{hashring.New(nd, 0), ModHasher(nd)} {
			a := NewAssignment(tab, h)
			for n := 0; n <= maxBatch; n++ {
				for i := 0; i < n; i++ {
					ts[i] = tuple.New(tuple.Key(rng.Intn(2000)), nil)
				}
				for i := range tuples {
					tuples[i] = -1
				}
				a.DestTuples(ts[:n], tuples)
				for i := 0; i < maxBatch; i++ {
					want := -1
					if i < n {
						want = a.Dest(ts[i].Key)
					}
					if tuples[i] != want {
						t.Fatalf("%d entries, %T, batch of %d, slot %d: DestTuples %d, want %d",
							tab.Len(), h, n, i, tuples[i], want)
					}
				}
			}
		}
	}
	// Empty batches are no-ops.
	NewAssignment(nil, ModHasher(3)).DestTuples(nil, nil)
}

// TestIndexMatchesTable pins the frozen index every per-tuple path
// reads against the map it was built from, on random tables of 0, 1 and
// Amax entries — with keys that agree in their low bits, the worst case
// for a table indexed by them — through Dest and DestTuples,
// for keys in the table and not.
func TestIndexMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nd = 7
	for _, entries := range []int{0, 1, 2, 37, 3000} {
		for _, stride := range []tuple.Key{1, 1 << 12, 1 << 40} {
			tab := NewTable()
			for tab.Len() < entries {
				tab.Put(tuple.Key(rng.Intn(4*entries+1))*stride, rng.Intn(nd))
			}
			for _, h := range []Hasher{hashring.New(nd, 0), ModHasher(nd)} {
				a := NewAssignment(tab, h)
				keys := make([]tuple.Key, 2000)
				ts := make([]tuple.Tuple, len(keys))
				for i := range keys {
					keys[i] = tuple.Key(rng.Intn(6*entries+3)) * stride
					if rng.Intn(8) == 0 {
						keys[i] = tuple.Key(rng.Uint64())
					}
					ts[i] = tuple.New(keys[i], nil)
				}
				tuples := make([]int, len(keys))
				a.DestTuples(ts, tuples)
				for i, k := range keys {
					want, ok := tab.Lookup(k)
					if !ok {
						want = h.Hash(k)
					}
					if got := a.Dest(k); got != want || tuples[i] != want {
						t.Fatalf("%d entries, stride %d, key %d (in table: %v): Dest %d, DestTuples %d, want %d",
							entries, stride, k, ok, got, tuples[i], want)
					}
				}
			}
		}
	}
}

// TestDestTuplesMarksSplits pins the one-probe split kernel against its
// reference, per-key Dest plus SplitTable.Index: with a split set
// attached, DestTuples writes ^j for a tuple of split key j and F(k) for
// every other, while Dest keeps resolving F(k) for all
// keys. Random tables of 0, 1 and 80 entries, split keys inside and
// outside the table, over the ring and over a hasher that is not one.
func TestDestTuplesMarksSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const nd, domain = 8, 400
	for _, entries := range []int{0, 1, 80} {
		tab := NewTable()
		for tab.Len() < entries {
			tab.Put(tuple.Key(rng.Intn(domain)), rng.Intn(nd))
		}
		for _, h := range []Hasher{hashring.New(nd, 0), ModHasher(nd)} {
			for _, nsplit := range []int{1, 2, 5} {
				a := NewAssignment(tab, h)
				st := NewSplitTable()
				tabKeys := tab.Keys()
				for st.Len() < nsplit {
					k := tuple.Key(domain + rng.Intn(domain)) // outside the table
					if len(tabKeys) > 0 && rng.Intn(2) == 0 {
						k = tabKeys[rng.Intn(len(tabKeys))] // inside it
					}
					st.Put(NewSplit(k, a.Dest(k), 4, nd))
				}
				a.SetSplits(st)
				ts := make([]tuple.Tuple, 1500)
				keys := make([]tuple.Key, len(ts))
				for i := range ts {
					keys[i] = tuple.Key(rng.Intn(2 * domain))
					if rng.Intn(3) == 0 {
						keys[i] = st.At(rng.Intn(st.Len())).Key
					}
					ts[i] = tuple.New(keys[i], nil)
				}
				tuples := make([]int, len(ts))
				a.DestTuples(ts, tuples)
				for i, k := range keys {
					f, ok := tab.Lookup(k)
					if !ok {
						f = h.Hash(k)
					}
					want := f
					if j := st.Index(k); j >= 0 {
						want = ^j
					}
					if tuples[i] != want || a.Dest(k) != f {
						t.Fatalf("%d entries, %T, %d splits, key %d: DestTuples %d (want %d), Dest %d (want %d)",
							entries, h, nsplit, k, tuples[i], want, a.Dest(k), f)
					}
				}
				// Detaching the set restores the plain kernel.
				a.SetSplits(nil)
				a.DestTuples(ts, tuples)
				for i, k := range keys {
					if tuples[i] != a.Dest(k) {
						t.Fatalf("%d entries, %T: key %d still marked after SetSplits(nil)", entries, h, k)
					}
				}
			}
		}
	}
}
