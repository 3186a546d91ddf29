package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func TestRegistryCoversEveryExhibit(t *testing.T) {
	want := []string{
		"fig01", "table2", "fig07a", "fig07b", "fig08", "fig09", "fig10", "fig11",
		"fig12", "fig13", "fig14a", "fig14b", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21",
		"abl-adjust", "abl-clean", "abl-psi", "abl-discretize", "abl-sigma",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d exhibits, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Run == nil {
			t.Fatalf("exhibit %s has no runner", id)
		}
	}
}

func TestTable2MatchesDefaults(t *testing.T) {
	r := Table2()
	if len(r.Rows) != 8 {
		t.Fatalf("Table II has %d rows, want 8", len(r.Rows))
	}
	if r.Rows[0][1] != "100000" || r.Rows[1][1] != "0.85" {
		t.Fatalf("defaults wrong: %v", r.Rows[:2])
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{ID: "x", Title: "T", Header: []string{"a"}, Rows: [][]string{{"1"}}, Notes: "n"}
	out := r.Render()
	for _, want := range []string{"== x: T ==", "a", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q in:\n%s", want, out)
		}
	}
}

func TestPlanSimRoundTrip(t *testing.T) {
	sim := newPlanSim(1000, 0.85, 1.0, 4, 2, 1)
	snap := sim.snapshot()
	if snap.ND != 4 || len(snap.Keys) == 0 {
		t.Fatalf("bad snapshot: nd=%d keys=%d", snap.ND, len(snap.Keys))
	}
	// Hash destinations must match the live assignment.
	for _, ks := range snap.Keys[:10] {
		if ks.Hash != sim.asg.HashDest(ks.Key) {
			t.Fatal("snapshot hash dest out of sync")
		}
		if ks.Dest != sim.asg.Dest(ks.Key) {
			t.Fatal("snapshot dest out of sync")
		}
	}
	plan := balance.Mixed{}.Plan(snap, defCfg())
	sim.apply(plan)
	// After apply, the assignment must reflect the plan's table.
	for _, k := range plan.Table.Keys() {
		d, _ := plan.Table.Lookup(k)
		if sim.asg.Dest(k) != d {
			t.Fatal("apply did not install routing entry")
		}
	}
	sim.advance()
	if sim.interval != 1 {
		t.Fatalf("interval = %d after advance", sim.interval)
	}
}

func TestPlanSimWindowedMemory(t *testing.T) {
	sim := newPlanSim(100, 0.85, 0, 2, 3, 2)
	s1 := sim.snapshot()
	sim.advance()
	s2 := sim.snapshot()
	// With a static distribution (f = 0) and w = 3, the second
	// interval's windowed memory must be roughly double the first's.
	if s2.TotalMem() <= s1.TotalMem() {
		t.Fatalf("windowed memory did not accumulate: %d then %d", s1.TotalMem(), s2.TotalMem())
	}
}

// refSnapshots is the plainest statement of planSim's snapshot: per-key
// maps for the window, summed key by key, then sorted by comparison.
type refSnapshots struct {
	w   int
	win []map[tuple.Key]int64
}

func (r *refSnapshots) snapshot(sim *planSim) []stats.KeyStat {
	keys, counts := sim.stream.RankLoad()
	load := map[tuple.Key]int64{}
	for i, c := range counts {
		if c > 0 {
			load[keys[i]] = c
		}
	}
	r.win = append(r.win, load)
	if len(r.win) > r.w {
		r.win = r.win[len(r.win)-r.w:]
	}
	var out []stats.KeyStat
	for k, c := range load {
		var mem int64
		for _, m := range r.win {
			mem += m[k]
		}
		out = append(out, stats.KeyStat{
			Key: k, Cost: c, Freq: c, Mem: mem * stateWeight(k),
			Dest: sim.asg.Dest(k), Hash: sim.asg.HashDest(k),
		})
	}
	stats.SortByCostDesc(out)
	return out
}

// The snapshot's window accumulator and its counting placement must
// give exactly the map-and-sort reference, across fluctuating
// intervals, applied plans, a budget change and windows of 1 and 3.
func TestPlanSimSnapshotMatchesReference(t *testing.T) {
	for _, w := range []int{1, 3} {
		sim := newPlanSim(5000, 0.85, 1.0, 4, w, 3)
		ref := &refSnapshots{w: w}
		for round := 0; round < 8; round++ {
			if round == 5 {
				sim.stream.PerInterval = 40000
			}
			want := ref.snapshot(sim)
			snap := sim.snapshot()
			if !slices.Equal(snap.Keys, want) {
				t.Fatalf("w=%d round %d: snapshot differs from the map-and-sort reference", w, round)
			}
			sim.apply(balance.Mixed{}.Plan(snap, defCfg()))
			sim.advance()
		}
	}
}

func TestStateWeightRangeAndDeterminism(t *testing.T) {
	for k := 0; k < 1000; k++ {
		w := stateWeight(tuple.Key(k))
		if w < 1 || w > 4 {
			t.Fatalf("stateWeight(%d) = %d out of [1,4]", k, w)
		}
		if w != stateWeight(tuple.Key(k)) {
			t.Fatal("stateWeight not deterministic")
		}
	}
	// All four weights occur.
	seen := map[int64]bool{}
	for k := 0; k < 1000; k++ {
		seen[stateWeight(tuple.Key(k))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("stateWeight uses %d distinct values, want 4", len(seen))
	}
}

func TestRunPlannerAggregates(t *testing.T) {
	sim := newPlanSim(2000, 0.85, 1.0, 4, 1, 3)
	pm := runPlanner(sim, balance.Mixed{}, defCfg(), 3)
	if pm.GenTime <= 0 {
		t.Fatal("no generation time recorded")
	}
	if pm.MaxTheta < 0 {
		t.Fatal("negative theta")
	}
}

// Smoke-run the two cheapest figure regenerators end to end so harness
// regressions are caught by `go test` without paying the full sweep.
func TestFig07aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration skipped in -short")
	}
	r := exhibit(t, "fig07a")
	if len(r.Rows) != 4 || len(r.Rows[0]) != 6 {
		t.Fatalf("fig07a shape %dx%d", len(r.Rows), len(r.Rows[0]))
	}
}

func TestFig19Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration skipped in -short")
	}
	r := exhibit(t, "fig19")
	if len(r.Rows) != 8 {
		t.Fatalf("fig19 rows = %d", len(r.Rows))
	}
}
