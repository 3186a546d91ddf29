package longterm

import (
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

func TestDetectorHoldsOnSteadyLoad(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 50; i++ {
		if act := d.Observe(800, 1000); act != Hold {
			t.Fatalf("interval %d: action %v on 80%% utilization", i, act)
		}
	}
}

func TestDetectorScaleOutNeedsPatience(t *testing.T) {
	d := NewDetector()
	fired := -1
	for i := 0; i < 30; i++ {
		if d.Observe(1200, 1000) == ScaleOut {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("sustained 120% utilization never triggered scale-out")
	}
	if fired < d.Patience-1 {
		t.Fatalf("scale-out fired at interval %d, before patience %d", fired, d.Patience)
	}
}

func TestDetectorIgnoresTransientSpike(t *testing.T) {
	d := NewDetector()
	// Two hot intervals inside a calm stream: a short-term fluctuation.
	loads := []int64{800, 800, 1500, 1500, 800, 800, 800, 800, 800, 800}
	for i, l := range loads {
		if act := d.Observe(l, 1000); act != Hold {
			t.Fatalf("interval %d: transient spike triggered %v", i, act)
		}
	}
}

func TestDetectorScaleInOnSustainedIdleness(t *testing.T) {
	d := NewDetector()
	var got Action
	for i := 0; i < 30; i++ {
		if act := d.Observe(200, 1000); act != Hold {
			got = act
			break
		}
	}
	if got != ScaleIn {
		t.Fatalf("sustained 20%% utilization gave %v, want scale-in", got)
	}
}

func TestDetectorCooldown(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 30 && d.Observe(1500, 1000) != ScaleOut; i++ {
	}
	// Immediately after firing, the cooldown must suppress actions for
	// Cooldown intervals even under continued overload.
	for i := 0; i < d.Cooldown; i++ {
		if act := d.Observe(1500, 1000); act != Hold {
			t.Fatalf("cooldown interval %d produced %v", i, act)
		}
	}
}

func TestDetectorZeroCapacity(t *testing.T) {
	d := NewDetector()
	if d.Observe(100, 0) != Hold {
		t.Fatal("zero capacity must hold")
	}
}

func TestActionString(t *testing.T) {
	if Hold.String() != "hold" || ScaleOut.String() != "scale-out" || ScaleIn.String() != "scale-in" {
		t.Fatal("Action strings wrong")
	}
}

// End to end: a workload that doubles permanently must grow the
// operator; the autoscaler keeps the short-term controller running.
// Both policies ride one control loop over the loopback transport.
func TestAutoScalerGrowsUnderSustainedShift(t *testing.T) {
	var n uint64
	rate := int64(7000) // 87.5% of the 8×1000 capacity: comfortably steady
	spout := func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%5000), nil)
	}
	st := engine.NewStage("op", 8, func(int) engine.Operator { return engine.StatefulCount }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(8)))
	cfg := engine.DefaultConfig()
	cfg.Budget = rate
	cfg.Capacity = 1000
	e := engine.NewBatch(engine.BatchSpout(spout), cfg, st)
	defer e.Stop()

	ctl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	ctl.MinKeys = 16
	as := &AutoScaler{Detector: NewDetector()}
	loop := control.NewLoop(e, 0, []control.Policy{ctl, as})
	defer loop.Close()
	e.AddSnapshotHook(0, loop.Hook())

	e.Run(8) // steady: no action expected
	if as.ScaleOuts != 0 {
		t.Fatalf("scaled out %d times under steady load", as.ScaleOuts)
	}

	// Long-term shift: offered load rises 50% and stays there.
	e.Cfg.Budget = 12000
	e.Run(20)
	if as.ScaleOuts == 0 {
		t.Fatal("sustained 150% load never grew the operator")
	}
	if st.Instances() <= 8 {
		t.Fatalf("instances = %d after scale-out", st.Instances())
	}
	// Short-term controller kept running alongside.
	if ctl.Rebalances() == 0 {
		t.Fatal("inner controller starved by autoscaler")
	}
}

// Sustained idleness must now retire instances live — the executor
// applies ScaleIn instead of merely recording it — and every key's
// state must land on a surviving instance.
func TestAutoScalerAppliesScaleIn(t *testing.T) {
	var n uint64
	spout := func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%100), nil)
	}
	st := engine.NewStage("op", 4, func(int) engine.Operator { return engine.StatefulCount }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(4)))
	cfg := engine.DefaultConfig()
	cfg.Budget = 400 // 10% utilization at capacity 1000
	cfg.Capacity = 1000
	e := engine.NewBatch(engine.BatchSpout(spout), cfg, st)
	defer e.Stop()

	as := &AutoScaler{Detector: NewDetector()}
	loop := control.NewLoop(e, 0, []control.Policy{as})
	defer loop.Close()
	e.AddSnapshotHook(0, loop.Hook())
	e.Run(30)
	if as.ScaleIns == 0 {
		t.Fatal("sustained idleness never applied a scale-in")
	}
	if got := st.Instances(); got >= 4 || got < 1 {
		t.Fatalf("instances = %d after scale-in (want within [1, 4))", got)
	}
	ar := st.AssignmentRouter()
	for _, k := range st.LiveKeys() {
		if d := ar.Assignment().Dest(k); d >= st.Instances() {
			t.Fatalf("key %d routed to retired instance %d", k, d)
		}
	}
	if !strings.Contains(as.Summary(), "scale-in") {
		t.Fatal("summary missing scale-in events")
	}
	if strings.Contains(as.Summary(), "recommended") {
		t.Fatal("summary still claims scale-ins are only recommended")
	}
}

// A stage never retires its only instance, even under permanent
// idleness.
func TestAutoScalerRespectsInstanceFloor(t *testing.T) {
	as := &AutoScaler{Detector: NewDetector()}
	env := control.Env{Interval: 0, Tasks: 1, Capacity: 1000, Routable: true, Resizable: true}
	snap := &stats.Snapshot{ND: 1}
	for i := 0; i < 40; i++ {
		env.Interval = int64(i)
		snap.Keys = []stats.KeyStat{{Key: 1, Cost: 100, Dest: 0}}
		if cmds := as.Decide(env, snap); len(cmds) != 0 {
			t.Fatalf("interval %d: floor ignored, got %v", i, cmds)
		}
	}
	if as.ScaleIns != 0 {
		t.Fatalf("ScaleIns = %d at the floor", as.ScaleIns)
	}
	if len(as.History) != 0 {
		t.Fatalf("history records %d unapplied actions", len(as.History))
	}
}
