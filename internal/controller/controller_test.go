package controller

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/engine"
	"repro/internal/hashring"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func newStage(nd int) *engine.Stage {
	r := engine.NewAssignmentRouter(route.NewAssignment(route.NewTable(), hashring.New(nd, 0)))
	return engine.NewStage("op", nd, func(int) engine.Operator { return engine.StatefulCount }, 1, r)
}

// feedSkewed pushes a hot key plus background keys, then closes the
// interval and returns the snapshot.
func feedSkewed(st *engine.Stage, hot tuple.Key, hotN, bgKeys int) *stats.Snapshot {
	for i := 0; i < hotN; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(hot, nil)})
	}
	for i := 0; i < bgKeys; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(1000+i), nil)})
	}
	st.Barrier()
	return st.EndInterval(0)
}

func TestControllerSkipsBalancedLoad(t *testing.T) {
	st := newStage(2)
	defer st.Stop()
	c := New(balance.Mixed{}, balance.Config{ThetaMax: 0.5, Beta: 1.5})
	// Uniform load across many keys: no plan expected at θmax = 0.5.
	for i := 0; i < 1000; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(i), nil)})
	}
	st.Barrier()
	snap := st.EndInterval(0)
	if r := c.Maybe(st, snap); r != nil {
		t.Fatalf("controller rebalanced a balanced operator (θ=%v)", snap.Loads())
	}
}

func TestControllerRebalancesSkew(t *testing.T) {
	st := newStage(2)
	defer st.Stop()
	c := New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, Beta: 1.5})
	snap := feedSkewed(st, 7, 500, 100)
	r := c.Maybe(st, snap)
	if r == nil {
		t.Fatal("controller ignored heavy skew")
	}
	if r.Plan == nil || len(r.Plan.Moved) == 0 {
		t.Fatal("plan moved nothing despite skew")
	}
	if c.Rebalances() != 1 {
		t.Fatalf("Rebalances = %d, want 1", c.Rebalances())
	}
	// The hot key's state must now live at its planned destination.
	if d, ok := r.Plan.MoveDest[7]; ok {
		if len(st.StoreOf(d).Entries(7)) == 0 {
			t.Fatal("hot key state not at planned destination")
		}
	}
}

func TestControllerMinKeysGuard(t *testing.T) {
	st := newStage(2)
	defer st.Stop()
	c := New(balance.Mixed{}, balance.Config{ThetaMax: 0.01, Beta: 1.5})
	c.MinKeys = 1000
	snap := feedSkewed(st, 3, 200, 10)
	if r := c.Maybe(st, snap); r != nil {
		t.Fatal("MinKeys guard did not suppress rebalance")
	}
}

// directHook is the direct path: the controller decides and applies on
// the stage itself, registered like any other per-stage hook.
func directHook(c *Controller) engine.SnapshotHook {
	return func(e *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
		return c.Maybe(e.Stages[si], snap)
	}
}

// TestControllerHookTargetsOnlyTargetStage: a controller registered on
// one stage is handed that stage's snapshots only — the engine's
// per-stage fan-out is the filter, the hook carries none.
func TestControllerHookTargetsOnlyTargetStage(t *testing.T) {
	s0, s1 := newStage(2), newStage(2)
	c := New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, Beta: 1.5})
	e := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple { return tuple.New(1, nil) }),
		engine.Config{Budget: 100, MaxPendingFactor: 2, MigrationFactor: 1}, s0, s1)
	defer e.Stop()
	var seen []int
	hook := directHook(c)
	e.AddSnapshotHook(0, func(e *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
		seen = append(seen, si)
		return hook(e, si, snap)
	})
	e.Run(3)
	if len(seen) != 3 {
		t.Fatalf("hook ran %d times over 3 intervals", len(seen))
	}
	for _, si := range seen {
		if si != 0 {
			t.Fatalf("hook registered on stage 0 ran for stage %d", si)
		}
	}
}

// End-to-end: a hash-skewed stream under the Mixed controller must end
// up with materially lower steady-state skew than without it.
func TestControllerEndToEndReducesSkew(t *testing.T) {
	run := func(withController bool) float64 {
		st := newStage(4)
		cfg := engine.Config{Budget: 2000, MaxPendingFactor: 2, MigrationFactor: 1}
		var n uint64
		// 10 hot keys cover most of the load.
		e := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple {
			n++
			if n%10 < 7 {
				return tuple.New(tuple.Key(n%10), nil)
			}
			return tuple.New(tuple.Key(100+n%500), nil)
		}), cfg, st)
		defer e.Stop()
		if withController {
			c := New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, Beta: 1.5})
			e.AddSnapshotHook(0, directHook(c))
		}
		e.Run(10)
		// Average skew over the last 5 intervals.
		var s float64
		for _, m := range e.Recorder.Series[5:] {
			s += m.Skewness
		}
		return s / 5
	}
	plain := run(false)
	managed := run(true)
	if managed >= plain {
		t.Fatalf("controller did not reduce skew: managed %.3f vs plain %.3f", managed, plain)
	}
	if managed > 1.3 {
		t.Fatalf("managed steady-state skew %.3f too high", managed)
	}
}
