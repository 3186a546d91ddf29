package experiments

import (
	"strconv"
	"testing"
)

// Shape tests: regenerate the cheaper exhibits and assert the paper's
// qualitative claims hold — the repository's headline regression tests.
// The expensive exhibits (multi-minute engine sweeps) are exercised by
// the bench harness instead.

func num(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q not numeric", r.ID, row, col, r.Rows[row][col])
	}
	return v
}

func TestFig13ShapeMixedBeatsStormAtLowF(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "fig13")
	// Row 0 is f = 0.1: Storm < Readj < Mixed ≤ Ideal.
	storm, readj, mixed, ideal := num(t, r, 0, 1), num(t, r, 0, 2), num(t, r, 0, 3), num(t, r, 0, 4)
	if !(storm < readj && readj < mixed && mixed <= ideal) {
		t.Fatalf("f=0.1 ordering broken: storm %v, readj %v, mixed %v, ideal %v",
			storm, readj, mixed, ideal)
	}
	if mixed < 0.9*ideal {
		t.Fatalf("Mixed %v not within 10%% of Ideal %v at f=0.1", mixed, ideal)
	}
}

func TestFig01ShapeBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "fig01")
	storm, mixed, ideal := num(t, r, 0, 2), num(t, r, 1, 2), num(t, r, 2, 2)
	if !(storm < mixed && mixed < ideal) {
		t.Fatalf("pipeline ordering broken: storm %v, mixed %v, ideal %v", storm, mixed, ideal)
	}
	// The throttled spout is the backpushing evidence: Storm's emission
	// must sit well below the budget while Ideal's matches it.
	if num(t, r, 0, 1) > 0.8*num(t, r, 2, 1) {
		t.Fatal("Storm's spout was not visibly throttled by operator 2's imbalance")
	}
}

func TestAblAdjustShape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "abl-adjust")
	for i := range r.Rows {
		with, without := num(t, r, i, 1), num(t, r, i, 2)
		if with >= without {
			t.Fatalf("row %d: Adjust (%v) did not beat NoAdjust (%v)", i, with, without)
		}
	}
}

func TestAblCleanShape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "abl-clean")
	paper, inverted := num(t, r, 0, 1), num(t, r, 1, 1)
	if paper >= inverted {
		t.Fatalf("smallest-mem cleaning (%v%%) not below largest-mem (%v%%)", paper, inverted)
	}
	// All policies must land within the bound.
	bound := num(t, r, 0, 2)
	for i := 1; i < len(r.Rows); i++ {
		if num(t, r, i, 2) != bound {
			t.Fatalf("policies reached different table sizes")
		}
	}
}

func TestAblPsiShape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "abl-psi")
	cost, gamma := num(t, r, 0, 1), num(t, r, 1, 1)
	if gamma >= cost {
		t.Fatalf("γ selection (%v%%) did not reduce migration vs cost selection (%v%%)", gamma, cost)
	}
}

func TestAblDiscretizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "abl-discretize")
	for i := range r.Rows {
		naive, hol := num(t, r, i, 1), num(t, r, i, 2)
		if hol > naive {
			t.Fatalf("row %d: holistic |δ| %v above naive %v", i, hol, naive)
		}
		if hol != 0 {
			t.Fatalf("row %d: holistic |δ| = %v, want 0 on this batch", i, hol)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "fig17")
	// Tightest bound at θ=0.02 must cost at least as much migration as
	// the most relaxed one.
	tight := num(t, r, 0, 1)
	relaxed := num(t, r, len(r.Rows)-1, 1)
	if tight < relaxed {
		t.Fatalf("tight N_A migration %v below relaxed %v", tight, relaxed)
	}
}

func TestFig20Fig21BetaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r20 := exhibit(t, "fig20")
	first := num(t, r20, 0, 1)
	last := num(t, r20, len(r20.Rows)-1, 1)
	if last >= first {
		t.Fatalf("β=2 table (%v) not smaller than β=1 table (%v)", last, first)
	}
	r21 := exhibit(t, "fig21")
	m1 := num(t, r21, 0, 1)
	m2 := num(t, r21, len(r21.Rows)-1, 1)
	if m2 <= m1 {
		t.Fatalf("β=2 migration (%v) not above β=1 (%v)", m2, m1)
	}
}

// TestFig09Shape pins fig09's migration columns against its note: the
// paper's "MinTable ≈ 3x Mixed" holds only at w = 5 (1.7–3.0x); at
// w = 1 MinTable is 1.0–1.6x Mixed. MinTable never migrates less than
// Mixed, and a window of 5 migrates less than one of 1 wherever either
// migrates at all.
func TestFig09Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "fig09")
	for i := range r.Rows {
		mixed1, minTable1, mixed5, minTable5 := num(t, r, i, 3), num(t, r, i, 4), num(t, r, i, 5), num(t, r, i, 6)
		for _, c := range []struct {
			w               int
			mixed, minTable float64
			lo, hi          float64
		}{{1, mixed1, minTable1, 1.0, 1.6}, {5, mixed5, minTable5, 1.6, 3.0}} {
			if c.minTable < c.mixed {
				t.Errorf("θ = %s, w = %d: MinTable migrates %v%%, below Mixed's %v%%", r.Rows[i][0], c.w, c.minTable, c.mixed)
			}
			if c.mixed > 0 {
				if q := c.minTable / c.mixed; q < c.lo || q > c.hi {
					t.Errorf("θ = %s, w = %d: MinTable/Mixed = %.2f, outside [%v, %v]", r.Rows[i][0], c.w, q, c.lo, c.hi)
				}
			}
		}
		for _, p := range []struct {
			name   string
			w1, w5 float64
		}{{"Mixed", mixed1, mixed5}, {"MinTable", minTable1, minTable5}} {
			if p.w1 > 0 && p.w5 >= p.w1 {
				t.Errorf("θ = %s: %s migrates %v%% at w = 5, not below %v%% at w = 1", r.Rows[i][0], p.name, p.w5, p.w1)
			}
		}
	}
}

// TestFig12Shape pins fig12's migration columns against its note:
// Mixed migrates less than MinTable and Readj at every f. Its own
// migration rises with f (0.53 → 4.41 %), so the paper's "grows
// slowest" does not hold here; the plan-time half of the note is
// wall-clock and not checked in this test.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	r := exhibit(t, "fig12")
	for i := range r.Rows {
		mixed, minTable, readj := num(t, r, i, 5), num(t, r, i, 6), num(t, r, i, 7)
		if mixed >= minTable || mixed >= readj {
			t.Errorf("f = %s: Mixed migrates %v%%, not below MinTable's %v%% and Readj's %v%%", r.Rows[i][0], mixed, minTable, readj)
		}
	}
}
