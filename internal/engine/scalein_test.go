package engine

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/tuple"
)

// feedInterval pushes one interval's worth of keys through the stage
// and closes it.
func feedInterval(st *Stage, interval int64, keys int) {
	for k := 0; k < keys; k++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(k), nil)})
	}
	st.Barrier()
	st.EndInterval(interval)
}

func liveStateTotal(st *Stage) int64 {
	var total int64
	for d := 0; d < st.Instances(); d++ {
		total += st.StoreOf(d).TotalSize()
	}
	return total
}

// TestStageScaleInMigratesEverything pins the scale-in contract: the
// retiring instance's keys — hash-owned and table-routed alike — all
// land on survivors with state volume preserved, the routing table
// drops its entries for the retired destination, and the moved volume
// is exactly what the retiring instance held: no state leaves a
// survivor.
func TestStageScaleInMigratesEverything(t *testing.T) {
	st := statefulStage(3, 2)
	defer st.Stop()
	const keys = 300
	feedInterval(st, 0, keys)

	// Pin a key whose hash home is elsewhere onto the retiring instance
	// through the routing table, so scale-in must also handle the
	// explicit-entry case (entry pruned, key falls back to its ring
	// home on a survivor... or migrates off the retiree).
	asg := st.AssignmentRouter().Assignment()
	var pinned tuple.Key
	for k := tuple.Key(0); k < keys; k++ {
		if asg.HashDest(k) != 2 {
			pinned = k
			break
		}
	}
	plan := &balance.Plan{
		Table:    route.NewTable(),
		Moved:    []tuple.Key{pinned},
		MoveDest: map[tuple.Key]int{pinned: 2},
	}
	plan.Table.Put(pinned, 2)
	st.ApplyPlan(plan)

	before := liveStateTotal(st)
	if st.StoreOf(2).TotalSize() == 0 {
		t.Fatal("retiring instance holds no state; the test is vacuous")
	}

	retiring := st.StoreOf(2).TotalSize()
	survived := make([]map[tuple.Key]int64, 2)
	for d := range survived {
		survived[d] = make(map[tuple.Key]int64)
		for _, k := range st.StoreOf(d).Keys() {
			survived[d][k] = sizeOf(st.StoreOf(d), k)
		}
	}
	moved, errScaleIn := st.ScaleIn()
	if errScaleIn != nil {
		t.Fatalf("ScaleIn: %v", errScaleIn)
	}

	if st.Instances() != 2 {
		t.Fatalf("instances = %d after scale-in", st.Instances())
	}
	if moved != retiring {
		t.Fatalf("moved %d, the retiring instance held %d", moved, retiring)
	}
	for d, held := range survived {
		for k, n := range held {
			if got := sizeOf(st.StoreOf(d), k); got < n {
				t.Fatalf("key %d on survivor %d shrank from %d to %d units", k, d, n, got)
			}
		}
	}
	if moved == 0 {
		t.Fatal("scale-in moved no state")
	}
	if got := liveStateTotal(st); got != before {
		t.Fatalf("state volume %d after scale-in, want %d (no loss)", got, before)
	}
	newAsg := st.AssignmentRouter().Assignment()
	if newAsg.Instances() != 2 {
		t.Fatalf("assignment still spans %d instances", newAsg.Instances())
	}
	if d, ok := newAsg.Table().Lookup(pinned); ok && d >= 2 {
		t.Fatalf("pinned key's table entry still points at retired instance %d", d)
	}
	for k := tuple.Key(0); k < keys; k++ {
		d := newAsg.Dest(k)
		if d < 0 || d >= 2 {
			t.Fatalf("key %d routes to %d after scale-in", k, d)
		}
		if got := sizeOf(st.StoreOf(d), k); got == 0 {
			t.Fatalf("key %d has no state at its post-scale-in home %d", k, d)
		}
	}
	// Surviving instances' hash arcs are untouched: keys not owned by
	// the retiree keep their exact placement (consistent hashing).
	for k := tuple.Key(0); k < keys; k++ {
		if k != pinned && asg.Dest(k) != 2 {
			if newAsg.Dest(k) != asg.Dest(k) {
				t.Fatalf("key %d moved between survivors (%d -> %d)", k, asg.Dest(k), newAsg.Dest(k))
			}
		}
	}
}

// TestStageScaleInCarriesTrackerHistory verifies statistics follow the
// keys: after scale-in, the next harvest reports every key at a
// surviving destination with its windowed memory intact.
func TestStageScaleInCarriesTrackerHistory(t *testing.T) {
	st := statefulStage(3, 3) // 3-interval window: history spans harvests
	defer st.Stop()
	const keys = 120
	feedInterval(st, 0, keys)
	st.ScaleIn()

	// Next interval: feed the same keys again and harvest. Every key's
	// windowed memory must span both intervals (2 units) — including
	// the migrated keys, whose pre-scale-in unit was carried over by
	// the tracker adoption — and every report must come from a
	// survivor.
	for k := 0; k < keys; k++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(k), nil)})
	}
	st.Barrier()
	snap := st.EndInterval(1)
	if snap.ND != 2 {
		t.Fatalf("snapshot ND = %d", snap.ND)
	}
	if len(snap.Keys) != keys {
		t.Fatalf("harvest reports %d keys, want %d", len(snap.Keys), keys)
	}
	for _, ks := range snap.Keys {
		if ks.Dest >= 2 {
			t.Fatalf("key %d reported by retired instance %d", ks.Key, ks.Dest)
		}
		if ks.Mem != 2 {
			t.Fatalf("key %d windowed memory = %d, want 2 (history lost in migration)", ks.Key, ks.Mem)
		}
	}
}

// TestEngineResizeStageRoundTrip drives the engine-level actuator both
// directions mid-run and checks the model keeps working at each width.
func TestEngineResizeStageRoundTrip(t *testing.T) {
	st := statefulStage(3, 1)
	cfg := DefaultConfig()
	cfg.Budget = 3000
	var n uint64
	e := NewBatch(BatchSpout(func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%200), nil)
	}), cfg, st)
	defer e.Stop()
	e.Run(2)
	if moved, err := e.ResizeStage(0, +1); err != nil || moved == 0 {
		t.Fatalf("scale-out moved nothing (moved=%d, err=%v)", moved, err)
	}
	e.Run(2)
	if moved, err := e.ResizeStage(0, -1); err != nil || moved == 0 {
		t.Fatalf("scale-in moved nothing (moved=%d, err=%v)", moved, err)
	}
	if st.Instances() != 3 {
		t.Fatalf("instances = %d after round trip", st.Instances())
	}
	e.Run(2)
	if len(e.Recorder.Series) != 6 {
		t.Fatalf("recorded %d intervals", len(e.Recorder.Series))
	}
	for _, m := range e.Recorder.Series {
		if m.Throughput <= 0 {
			t.Fatalf("interval %d throughput %.0f after resizes", m.Index, m.Throughput)
		}
	}
}

// TestScaleInGuards pins the failure modes: no assignment router, and
// a single-instance stage.
func TestScaleInGuards(t *testing.T) {
	shuffle := NewStage("sh", 2, func(int) Operator { return Discard }, 1, NewShuffleRouter(2))
	defer shuffle.Stop()
	if _, err := shuffle.ScaleIn(); err == nil {
		t.Fatal("shuffle scale-in did not error")
	}

	single := statefulStage(1, 1)
	defer single.Stop()
	if _, err := single.ScaleIn(); err == nil {
		t.Fatal("single-instance scale-in did not error")
	}
	if single.Instances() != 1 {
		t.Fatalf("failed scale-in changed instance count to %d", single.Instances())
	}
}
