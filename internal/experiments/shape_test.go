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
