package stats

import (
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// Tests of the harvest k-way merge: MergeRuns over sorted runs must
// equal SortByCostDesc over their concatenation, for every shape the
// stage can produce — unique keys (assignment routing), duplicate keys
// across runs (shuffle/PKG stages), cost ties, empty runs.

func randomRuns(rng *rand.Rand, nRuns, maxLen, keyDomain, costDomain int) [][]KeyStat {
	runs := make([][]KeyStat, nRuns)
	for d := range runs {
		// Keys are unique within a run (a task's tracker reports each
		// key once) but may repeat across runs; (Key, Dest) is then
		// unique over the concatenation, so the KeyStatLess order is
		// total and the expected output is well-defined.
		perm := rng.Perm(keyDomain)
		n := rng.Intn(maxLen + 1)
		if n > keyDomain {
			n = keyDomain
		}
		run := make([]KeyStat, n)
		for i := range run {
			run[i] = KeyStat{
				Key:  tuple.Key(perm[i]),
				Cost: int64(1 + rng.Intn(costDomain)),
				Freq: int64(rng.Intn(50)),
				Mem:  int64(rng.Intn(100)),
				Dest: d,
				Hash: rng.Intn(nRuns),
			}
		}
		SortByCostDesc(run)
		runs[d] = run
	}
	return runs
}

func TestMergeRunsEqualsSortedConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		// Small cost domains force heavy ties; small key domains force
		// the same key into several runs (the shuffle-stage shape).
		runs := randomRuns(rng, 1+rng.Intn(24), 40, 1+rng.Intn(30), 1+rng.Intn(5))
		var concat []KeyStat
		for _, r := range runs {
			concat = append(concat, r...)
		}
		SortByCostDesc(concat)
		// Merging onto a recycled buffer must not depend on what the
		// buffer held.
		got := MergeRuns(make([]KeyStat, rng.Intn(50), 64)[:0], runs)
		if len(got) != len(concat) {
			t.Fatalf("trial %d: merged %d entries, want %d", trial, len(got), len(concat))
		}
		for i := range concat {
			if got[i] != concat[i] {
				t.Fatalf("trial %d entry %d: merge %+v ≠ sort %+v", trial, i, got[i], concat[i])
			}
		}
	}
}

func TestMergeRunsEdgeShapes(t *testing.T) {
	if got := MergeRuns(nil, nil); got != nil {
		t.Fatalf("merge of no runs = %v, want nil", got)
	}
	if got := MergeRuns(nil, [][]KeyStat{nil, {}, nil}); got != nil {
		t.Fatalf("merge of empty runs = %v, want nil", got)
	}
	kept := []KeyStat{{Key: 9, Cost: 9}}
	if got := MergeRuns(kept, nil); len(got) != 1 || got[0] != kept[0] {
		t.Fatalf("merge of no runs onto %v = %v", kept, got)
	}
	single := []KeyStat{{Key: 2, Cost: 5}, {Key: 1, Cost: 3}}
	got := MergeRuns(nil, [][]KeyStat{nil, single, nil})
	if len(got) != 2 || got[0] != single[0] || got[1] != single[1] {
		t.Fatalf("single-run merge = %v, want copy of the run", got)
	}
	// The single-run fast path must return a copy, not alias the input.
	got[0].Cost = 99
	if single[0].Cost == 99 {
		t.Fatal("single-run merge aliases the input run")
	}
}

func TestKeyStatLessTotalOrder(t *testing.T) {
	// Antisymmetry on the duplicate-key, equal-cost case the Dest
	// tie-break exists for.
	a := KeyStat{Key: 7, Cost: 4, Dest: 1}
	b := KeyStat{Key: 7, Cost: 4, Dest: 2}
	if !KeyStatLess(a, b) || KeyStatLess(b, a) {
		t.Fatal("Dest tie-break is not a strict order")
	}
	if KeyStatLess(a, a) {
		t.Fatal("KeyStatLess is not irreflexive")
	}
}

// The merge compares costs, keys and destinations as unsigned limbs;
// the mapping must keep int64's order at its ends too.
func TestMergeRunsExtremeValues(t *testing.T) {
	const maxI, minI = int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1
	runs := [][]KeyStat{
		{{Key: 3, Cost: maxI, Dest: 2}, {Key: ^tuple.Key(0), Cost: 0, Dest: 2}, {Key: 1, Cost: -1, Dest: 2}, {Key: 5, Cost: minI, Dest: 2}},
		{{Key: 3, Cost: maxI, Dest: -1}, {Key: 0, Cost: 0, Dest: 0}, {Key: 5, Cost: minI, Dest: -7}},
	}
	var concat []KeyStat
	for _, r := range runs {
		concat = append(concat, r...)
	}
	SortByCostDesc(concat)
	got := MergeRuns(nil, runs)
	if len(got) != len(concat) {
		t.Fatalf("merged %d entries, want %d", len(got), len(concat))
	}
	for i := range concat {
		if got[i] != concat[i] {
			t.Fatalf("entry %d: merge %+v ≠ sort %+v", i, got[i], concat[i])
		}
	}
}

// A live record whose limbs are all ones at one end (the last record in
// KeyStatLess order for the front tournament, the first for the back)
// must still beat an exhausted run: here run 0's only record is such a
// one and is reached after run 1 has run out.
func TestMergeRunsExhaustedLosesToExtremeRecord(t *testing.T) {
	const maxI, minI = int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1
	last := KeyStat{Key: ^tuple.Key(0), Cost: minI, Dest: int(maxI)}
	first := KeyStat{Key: 0, Cost: maxI, Dest: int(minI)}
	for _, runs := range [][][]KeyStat{
		{{last}, {{Key: 1, Cost: 5}, {Key: 2, Cost: 4}}},
		{{first}, {{Key: 1, Cost: 5}, {Key: 2, Cost: 4}}},
		{{first, last}, {{Key: 1, Cost: 5}, {Key: 2, Cost: 4}, {Key: 3, Cost: 3}}},
		{{first}, {{Key: 1, Cost: 5}}, {last}},
	} {
		var concat []KeyStat
		for _, r := range runs {
			concat = append(concat, r...)
		}
		SortByCostDesc(concat)
		got := MergeRuns(nil, runs)
		if len(got) != len(concat) {
			t.Fatalf("merged %d entries, want %d", len(got), len(concat))
		}
		for i := range concat {
			if got[i] != concat[i] {
				t.Fatalf("runs %v entry %d: merge %+v ≠ sort %+v", runs, i, got[i], concat[i])
			}
		}
	}
}
