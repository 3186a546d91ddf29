package controller

import (
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// stubPlanner returns a canned plan and records the snapshot it was
// handed, so guard tests control exactly what the controller would
// announce and see what it planned on.
type stubPlanner struct {
	plan *balance.Plan
	saw  **stats.Snapshot
}

func (p stubPlanner) Name() string { return "stub" }
func (p stubPlanner) Plan(snap *stats.Snapshot, _ balance.Config) *balance.Plan {
	*p.saw = snap.Clone()
	return p.plan
}

// TestControllerGuardPinsSplitKeys pins how the controller plans around
// split keys: the planner sees every key but the split ones, over the
// load each split key puts on its replicas; the announced table keeps
// each split key's routing (an explicit entry when its home differs
// from h(k), the hash fallback otherwise) and SplitPinned stays 0. When
// one instance's pinned share alone is past Lmax the controller holds
// (HeldSplit) without planning, and a planner that moves a split key
// anyway has the move stripped and counted.
func TestControllerGuardPinsSplitKeys(t *testing.T) {
	// Key 5: split 4 ways, home 2 ≠ hash 0 → table entry must pin 5 → 2.
	// Key 9: split 4 ways, home = hash = 1 → no table entry.
	// Key 7: cold, on 0 with 400 of cost → the plan moves it to 3.
	snap := &stats.Snapshot{ND: 4, Keys: []stats.KeyStat{
		{Key: 5, Cost: 5000, Dest: 2, Hash: 0},
		{Key: 9, Cost: 4000, Dest: 1, Hash: 1},
		{Key: 7, Cost: 400, Dest: 0, Hash: 0},
	}}
	cold := func() *balance.Plan {
		tab := route.NewTable()
		tab.Put(7, 3)
		return &balance.Plan{Table: tab, Moved: []tuple.Key{7}, MoveDest: map[tuple.Key]int{7: 3}}
	}
	var saw *stats.Snapshot
	c := New(stubPlanner{cold(), &saw}, balance.Config{ThetaMax: 0.01})
	env := control.Env{Routable: true, Split: []control.SplitSpec{{Key: 5, Fan: 4}, {Key: 9, Fan: 4}}}
	cmds := c.Decide(env, snap)
	if len(cmds) != 1 {
		t.Fatalf("got %d commands, want 1 rebalance", len(cmds))
	}
	if len(saw.Keys) != 1 || saw.Keys[0].Key != 7 {
		t.Fatalf("planner saw keys %+v, want only the cold key 7", saw.Keys)
	}
	if !slices.Equal(saw.Pinned, []int64{2250, 2250, 2250, 2250}) {
		t.Fatalf("planner saw pinned loads %v, want 5000/4 + 4000/4 on every instance", saw.Pinned)
	}
	got := cmds[0].(control.Rebalance).Plan
	if c.SplitPinned != 0 || c.HeldSplit != 0 {
		t.Fatalf("SplitPinned = %d, HeldSplit = %d, want 0 and 0", c.SplitPinned, c.HeldSplit)
	}
	if len(got.Moved) != 1 || got.Moved[0] != 7 {
		t.Fatalf("Moved = %v, want [7]", got.Moved)
	}
	if d, ok := got.Table.Lookup(5); !ok || d != 2 {
		t.Fatalf("table routes split key 5 to (%d,%v), want its home 2", d, ok)
	}
	if _, ok := got.Table.Lookup(9); ok {
		t.Fatal("split key 9 got a table entry although home = hash")
	}
	if d, ok := got.Table.Lookup(7); !ok || d != 3 {
		t.Fatalf("cold key 7 routed to (%d,%v), plan wanted 3", d, ok)
	}

	// Key 5 over two replicas puts 2500 + 1000 on instances 2 and 3,
	// past Lmax = 1.01 · 9400/4: hold without planning.
	saw = nil
	env.Split[0].Fan = 2
	if cmds := c.Decide(env, snap); cmds != nil || saw != nil || c.HeldSplit != 1 {
		t.Fatalf("pinned load past Lmax: commands %v, planned %v, HeldSplit %d; want a counted hold", cmds, saw != nil, c.HeldSplit)
	}

	// A planner that moves a split key anyway: the check strips the move.
	env.Split[0].Fan = 4
	bad := cold()
	bad.Table.Put(5, 3)
	bad.Moved = []tuple.Key{5, 7}
	bad.MoveDest[5] = 3
	c.Planner = stubPlanner{bad, &saw}
	cmds = c.Decide(env, snap)
	if len(cmds) != 1 || c.SplitPinned != 1 {
		t.Fatalf("got %d commands, SplitPinned %d; want 1 and 1", len(cmds), c.SplitPinned)
	}
	got = cmds[0].(control.Rebalance).Plan
	if _, ok := got.MoveDest[5]; ok || len(got.Moved) != 1 || got.Moved[0] != 7 {
		t.Fatalf("split key 5's move survived: Moved %v", got.Moved)
	}
	if d, _ := got.Table.Lookup(5); d != 2 {
		t.Fatalf("table routes split key 5 to %d, want its home 2", d)
	}
}

// TestHeldSplitBoundaryIsProblemLmax pins the split hold to the
// round's Problem: over four instances with θmax 0.5 and 1 600 of cost,
// Lmax = 1.5 · 400 = 600. Split key 5 (fan 2, home 0) pins half its
// cost on instances 0 and 1. At 1 200 each share is exactly Lmax and
// the controller plans; one unit moved from the cold key onto the split
// key (1 201 against 399) puts 601 on instance 0 and it holds.
func TestHeldSplitBoundaryIsProblemLmax(t *testing.T) {
	cfg := balance.Config{ThetaMax: 0.5}
	env := control.Env{Routable: true, Split: []control.SplitSpec{{Key: 5, Fan: 2}}}
	round := func(split, cold int64) (planned *stats.Snapshot, c *Controller) {
		snap := &stats.Snapshot{ND: 4, Keys: []stats.KeyStat{
			{Key: 5, Cost: split},
			{Key: 7, Cost: cold},
		}}
		plan := &balance.Plan{Table: route.NewTable(), MoveDest: map[tuple.Key]int{}}
		c = New(stubPlanner{plan, &planned}, cfg)
		c.Decide(env, snap)
		return planned, c
	}
	view, c := round(1200, 400)
	if view == nil || c.HeldSplit != 0 {
		t.Fatalf("pinned share at Lmax: planned %v, HeldSplit %d; want a plan", view != nil, c.HeldSplit)
	}
	if pr := balance.NewProblem(view, cfg); pr.Lmax != 600 || slices.Max(view.Pinned) != 600 {
		t.Fatalf("Lmax %v, pinned %v; want both at 600", pr.Lmax, view.Pinned)
	}
	if view, c = round(1201, 399); view != nil || c.HeldSplit != 1 {
		t.Fatalf("pinned share one unit above Lmax: planned %v, HeldSplit %d; want a counted hold", view != nil, c.HeldSplit)
	}
}

// TestSplitterEmitsOnChangeOnly pins the policy's announce discipline:
// one SetSplit when the set changes, silence while it holds, and a
// final empty SetSplit when the key cools past the hysteresis exit.
func TestSplitterEmitsOnChangeOnly(t *testing.T) {
	s := NewSplitter(4, 1.0)
	env := control.Env{Routable: true, Tasks: 8, Capacity: 1000}
	snap := func(cost int64) *stats.Snapshot {
		return &stats.Snapshot{ND: 8, Keys: []stats.KeyStat{{Key: 3, Cost: cost, Freq: cost}}}
	}
	if cmds := s.Decide(env, snap(500)); cmds != nil {
		t.Fatalf("cold snapshot emitted %v", cmds)
	}
	cmds := s.Decide(env, snap(2200))
	if len(cmds) != 1 {
		t.Fatalf("hot snapshot emitted %d commands, want 1", len(cmds))
	}
	set := cmds[0].(control.SetSplit).Set
	if len(set) != 1 || set[0].Key != 3 || set[0].Fan != 3 {
		t.Fatalf("SetSplit = %v, want key 3 fan 3", set)
	}
	if cmds := s.Decide(env, snap(2200)); cmds != nil {
		t.Fatalf("unchanged set re-announced: %v", cmds)
	}
	cmds = s.Decide(env, snap(100))
	if len(cmds) != 1 || len(cmds[0].(control.SetSplit).Set) != 0 {
		t.Fatalf("cooled key should announce an empty set, got %v", cmds)
	}
	if s.Announced != 2 || s.MaxActive != 1 {
		t.Fatalf("Announced=%d MaxActive=%d, want 2 and 1", s.Announced, s.MaxActive)
	}
	// Not routable: the policy must hold entirely.
	if cmds := s.Decide(control.Env{Tasks: 8, Capacity: 1000}, snap(9000)); cmds != nil {
		t.Fatalf("non-routable stage got %v", cmds)
	}
}
