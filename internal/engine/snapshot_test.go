package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// TestSnapshotLifetime pins the rule the recycled merge buffers impose
// and the control round relies on: the snapshot of close i is intact
// while round i runs (plans applied, state migrated) and after close
// i+1 — the span of a snapshot a hook kept — and a steady close allocates no new
// buffer for it.
func TestSnapshotLifetime(t *testing.T) {
	st := statefulStage(4, 2)
	rng := rand.New(rand.NewSource(3))
	var prev, prevCopy *stats.Snapshot
	var buf [2]*stats.KeyStat
	for i := int64(0); i < 8; i++ {
		// Every key every interval, at random frequencies: the
		// snapshots keep one size, so the buffers are sized once.
		ts := make([]tuple.Tuple, 400)
		for j := range ts {
			ts[j] = tuple.New(tuple.Key(j%150), nil)
			if j >= 150 {
				ts[j].Key = tuple.Key(rng.Intn(150))
			}
		}
		st.FeedBatch(ts)
		st.Barrier()
		snap := st.EndInterval(i)
		if len(snap.Keys) != 150 {
			t.Fatalf("%d keys at close %d, want 150", len(snap.Keys), i)
		}
		if prev != nil && !reflect.DeepEqual(prev, prevCopy) {
			t.Fatalf("snapshot of close %d changed under close %d", i-1, i)
		}
		cp := snap.Clone()
		// The round: move a few of the snapshot's keys, as a plan would.
		asg := st.AssignmentRouter().Assignment()
		plan := &balance.Plan{Table: asg.Table().Clone(), MoveDest: map[tuple.Key]int{}}
		for _, ks := range snap.Keys[:5] {
			dst := (ks.Dest + 1) % 4
			plan.Table.Put(ks.Key, dst)
			plan.Moved = append(plan.Moved, ks.Key)
			plan.MoveDest[ks.Key] = dst
		}
		if _, err := st.ApplyPlan(plan); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, cp) {
			t.Fatalf("snapshot of close %d changed under its own round", i)
		}
		if i < 2 {
			buf[i] = &snap.Keys[0]
		} else if &snap.Keys[0] != buf[i&1] {
			t.Fatalf("close %d merged into a fresh buffer", i)
		}
		prev, prevCopy = snap, cp
	}
	st.Stop()
}
