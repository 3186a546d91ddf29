package controller

import (
	"time"

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
	if c.SkippedBalanced != 1 {
		t.Fatalf("SkippedBalanced = %d, want 1", c.SkippedBalanced)
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

func TestControllerCustomTrigger(t *testing.T) {
	st := newStage(2)
	defer st.Stop()
	c := New(balance.Mixed{}, balance.Config{ThetaMax: 0.01, Beta: 1.5})
	c.Trigger = 10 // effectively never
	snap := feedSkewed(st, 3, 500, 10)
	if r := c.Maybe(st, snap); r != nil {
		t.Fatal("custom trigger ignored")
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

// slowPlanner wraps a planner and inflates its reported generation
// time, exercising the deferred-application path.
type slowPlanner struct {
	inner   balance.Planner
	genTime time.Duration
}

func (s slowPlanner) Name() string { return "slow" }
func (s slowPlanner) Plan(snap *stats.Snapshot, cfg balance.Config) *balance.Plan {
	p := s.inner.Plan(snap, cfg)
	p.GenTime = s.genTime
	return p
}

func TestSlowPlannerAppliesLate(t *testing.T) {
	st := newStage(2)
	defer st.Stop()
	c := New(slowPlanner{balance.Mixed{}, 25 * time.Millisecond}, balance.Config{ThetaMax: 0.08, Beta: 1.5})
	c.IntervalDuration = 10 * time.Millisecond // plan takes 2.5 intervals

	// Interval 0: imbalance detected, plan generated but deferred.
	snap := feedSkewed(st, 7, 500, 100)
	if r := c.Maybe(st, snap); r != nil {
		t.Fatal("slow plan applied immediately")
	}
	// Interval 1: still generating.
	snap1 := feedSkewed(st, 7, 500, 100)
	if r := c.Maybe(st, snap1); r != nil {
		t.Fatal("slow plan applied one interval early")
	}
	// Interval 2: plan lands.
	snap2 := feedSkewed(st, 7, 500, 100)
	r := c.Maybe(st, snap2)
	if r == nil {
		t.Fatal("deferred plan never applied")
	}
	if c.DeferredApplies != 1 {
		t.Fatalf("DeferredApplies = %d, want 1", c.DeferredApplies)
	}
}

// fixedPlanner always returns the same pre-built plan.
type fixedPlanner struct{ p *balance.Plan }

func (f fixedPlanner) Name() string { return f.p.Algorithm }
func (f fixedPlanner) Plan(*stats.Snapshot, balance.Config) *balance.Plan {
	return f.p
}

// TestStalePlanDroppedAfterScaleIn pins the elastic hazard: a plan
// parked in generation before a scale-in may target instances that no
// longer exist; releasing it unchecked would panic the driver (index
// out of range in migrateKey) or install routes to a retired task. The
// controller must drop it and replan from the next snapshot instead.
func TestStalePlanDroppedAfterScaleIn(t *testing.T) {
	st := newStage(3)
	defer st.Stop()
	// A fixed plan that routes the hot key to instance 2 — exactly the
	// instance the scale-in below retires.
	stale := &balance.Plan{
		Algorithm: "fixed",
		Table:     route.NewTable(),
		Moved:     []tuple.Key{7},
		MoveDest:  map[tuple.Key]int{7: 2},
		GenTime:   15 * time.Millisecond,
	}
	stale.Table.Put(7, 2)
	c := New(fixedPlanner{stale}, balance.Config{ThetaMax: 0.08, Beta: 1.5})
	c.IntervalDuration = 10 * time.Millisecond // plans land one interval late

	// Interval 0: imbalance detected at 3 instances; plan deferred.
	snap := feedSkewed(st, 7, 500, 100)
	if r := c.Maybe(st, snap); r != nil {
		t.Fatal("slow plan applied immediately")
	}
	// The instance set shrinks while the plan is in generation.
	st.ScaleIn()

	// Interval 1: the pending plan lands — computed for 3 instances,
	// released against 2. It must be dropped, not applied.
	for i := 0; i < 300; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(1000+i), nil)})
	}
	st.Barrier()
	snap1 := st.EndInterval(1)
	if r := c.Maybe(st, snap1); r != nil {
		t.Fatalf("stale plan applied against the shrunk stage: %+v", r.Plan)
	}
	if c.DroppedStale != 1 {
		t.Fatalf("DroppedStale = %d, want 1", c.DroppedStale)
	}
	if c.DeferredApplies != 0 {
		t.Fatalf("DeferredApplies = %d for a dropped plan", c.DeferredApplies)
	}
	// No live key may route beyond the surviving instances.
	ar := st.AssignmentRouter()
	for _, k := range st.LiveKeys() {
		if d := ar.Assignment().Dest(k); d >= 2 {
			t.Fatalf("key %d routed to retired instance %d", k, d)
		}
	}
}

func TestFastPlannerAppliesImmediately(t *testing.T) {
	st := newStage(2)
	defer st.Stop()
	c := New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, Beta: 1.5})
	c.IntervalDuration = time.Hour // everything is "fast" at this scale
	snap := feedSkewed(st, 7, 500, 100)
	if r := c.Maybe(st, snap); r == nil {
		t.Fatal("fast plan deferred")
	}
	if c.DeferredApplies != 0 {
		t.Fatal("fast path counted as deferred")
	}
}
