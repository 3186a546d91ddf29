package engine

// Hot-key splitting: the stage-side half of the dynamic per-key
// replication protocol. A split key's tuples fan out round-robin
// across a replica set on the feed path (route.SplitTable, published
// with the routing assignment it rides on), each charged on arrival to
// the replica that runs it; replicas reduce them into commutative delta
// cells (task.absorbSplit); and foldSplits drains the cells back into
// the key's home task before statistics harvest and interval flush, so
// the key's snapshot entry, routing, state and final aggregates are
// bit-identical to an unsplit run's. The arrival accounting, and the
// queueing model and skewness read from it, show the split: the hot
// key's work actually executes on Fan goroutines instead of one.
//
// A split set changes only on a sealed stage, like every actuation:
// publishing one arms the new replicas' cells over the task FIFOs and
// swaps the assignment, and retiring one drains the dropped replicas'
// cells into the home task — no feeder can still pick a retired replica.

import (
	"fmt"
	"sort"

	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// ApplySplitSet publishes a new hot-key split set, replacing the
// current one: keys present in set become (or stay) split with the
// given fan, keys absent fold back into their home task for good.
// Each key's home and replica ring are resolved from the assignment
// live at apply time, so an announcement composes correctly with a
// rebalance plan applied earlier in the same control round. Like every
// actuation it runs on a sealed stage, at controller-hook time; an open
// stage or one without an assignment router returns an error and keeps
// its split set.
func (s *Stage) ApplySplitSet(set []stats.HotKey) error {
	if err := s.sealed("apply a split set"); err != nil {
		return err
	}
	if s.ar == nil {
		return fmt.Errorf("engine: stage %q has no assignment router; cannot split keys", s.Name)
	}
	s.setSplits(set)
	return nil
}

// setSplits is ApplySplitSet on a sealed assignment-routed stage.
func (s *Stage) setSplits(set []stats.HotKey) {
	old := s.ar.Assignment()
	oldSt := old.Splits()
	nd := len(s.tasks)

	// Build the next split table. Unchanged entries keep their Split
	// object (round-robin cursor and armed replicas survive); new or
	// fan-grown entries get a fresh replica ring anchored at the key's
	// current home.
	var nst *route.SplitTable
	if nd >= 2 {
		for _, hk := range set {
			if nst == nil {
				nst = route.NewSplitTable()
			}
			sp := route.NewSplit(hk.Key, old.Dest(hk.Key), hk.Fan, nd)
			if oldSt != nil {
				if o, ok := oldSt.Lookup(hk.Key); ok && o.Home == sp.Home && o.Fan() == sp.Fan() {
					sp = o
				}
			}
			nst.Put(sp)
		}
	}
	if oldSt == nil && nst == nil {
		return
	}

	// Arm delta cells on every replica not already armed for its key —
	// fire-and-forget thunks queued ahead of the swap, so FIFO makes
	// the cells exist before the first split-routed tuple is dequeued.
	if nst != nil {
		armPer := make(map[int][]tuple.Key)
		nst.Each(func(sp *route.Split) {
			var oldReps []int
			if oldSt != nil {
				if o, ok := oldSt.Lookup(sp.Key); ok {
					oldReps = o.Replicas
				}
			}
			for _, d := range sp.Replicas {
				if !containsDest(oldReps, d) {
					armPer[d] = append(armPer[d], sp.Key)
				}
			}
		})
		for d, keys := range armPer {
			s.tasks[d].armSplit(keys)
		}
	}

	// Publish: same table and hasher, new split set.
	next := route.NewAssignment(old.Table(), old.Hasher())
	next.SetSplits(nst)
	s.ar.Swap(next)

	// Retirements: keys leaving the set (and any replica dropped from a
	// surviving key's ring) must have their cells extracted.
	type retirement struct {
		k    tuple.Key
		home int
		reps []int // replicas to extract from (full set when unsplitting)
	}
	var rets []retirement
	if oldSt != nil {
		oldSt.Each(func(sp *route.Split) {
			var newReps []int
			if nst != nil {
				if n, ok := nst.Lookup(sp.Key); ok {
					newReps = n.Replicas
				}
			}
			var drop []int
			for _, d := range sp.Replicas {
				if !containsDest(newReps, d) {
					drop = append(drop, d)
				}
			}
			if len(drop) > 0 {
				rets = append(rets, retirement{k: sp.Key, home: sp.Home, reps: drop})
			}
		})
	}
	if len(rets) == 0 {
		return
	}
	sort.Slice(rets, func(i, j int) bool { return rets[i].k < rets[j].k })
	for _, r := range rets {
		var sum splitCell
		for _, d := range r.reps {
			t := s.tasks[d]
			t.barrier(func(*TaskCtx) {
				c := t.retireSplit(r.k)
				sum.add(&c)
			})
		}
		if sum.zero() {
			continue
		}
		home := s.tasks[r.home]
		home.barrier(func(ctx *TaskCtx) {
			mergeSplitCell(home, ctx, r.k, sum)
		})
	}
}

// foldSplits drains every replica's delta cells and merges them into
// each key's home task — the fold-back step of the split protocol,
// run before interval flush and statistics harvest so the home task's
// canonical state and (on an observed stage) tracker cell end the
// interval exactly as an unsplit run's would. The merges are queued,
// not awaited: FIFO runs them before whatever the caller enqueues next
// (the close, the harvest). Keys stay armed; a drained or never-fed
// cell contributes nothing, so a second fold is harmless.
func (s *Stage) foldSplits() {
	ar := s.AssignmentRouter()
	if ar == nil {
		return
	}
	st := ar.Assignment().Splits()
	if st == nil {
		return
	}
	// Collect concurrently: each task drains its own cells under a
	// barrier thunk (FIFO puts the drain after every enqueued tuple).
	perTask := make([][]splitCell, len(s.tasks))
	dones := make([]chan struct{}, 0, len(s.tasks))
	for i, t := range s.tasks {
		dones = append(dones, t.barrierAsync(func(*TaskCtx) {
			for j := range t.split {
				c := &t.split[j]
				if !c.zero() {
					perTask[i] = append(perTask[i], *c)
					*c = splitCell{key: c.key}
				}
			}
		}))
	}
	for _, d := range dones {
		<-d
	}
	agg := make(map[tuple.Key]splitCell)
	for _, cs := range perTask {
		for j := range cs {
			a := agg[cs[j].key]
			a.add(&cs[j])
			agg[cs[j].key] = a
		}
	}
	if len(agg) == 0 {
		return
	}
	// Merge per home task, keys ascending, all homes concurrently —
	// deterministic per-task merge order.
	asg := ar.Assignment()
	perHome := make(map[int][]tuple.Key)
	for k := range agg {
		home := asg.Dest(k)
		if sp, ok := st.Lookup(k); ok {
			home = sp.Home
		}
		perHome[home] = append(perHome[home], k)
	}
	for home, keys := range perHome {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		t := s.tasks[home]
		t.in <- message{ctrl: func(ctx *TaskCtx) {
			for _, k := range keys {
				mergeSplitCell(t, ctx, k, agg[k])
			}
		}}
	}
}

// mergeSplitCell applies one key's summed replica contribution on the
// home task's goroutine: the tracker's attribution on an observed stage
// (the key's statistics live at its home, wherever its tuples ran), then
// the operator's own fold. Plain integer adds end to end — commutative,
// so replica and fold order never show in the key's entry or state. The
// arrivals were charged at feed time to the replicas that ran them.
func mergeSplitCell(t *task, ctx *TaskCtx, k tuple.Key, c splitCell) {
	if ctx.observe {
		ctx.Tracker.AbsorbKey(k, c.cost, c.freq, c.mem)
	}
	if t.folder != nil {
		t.folder.SplitMerge(ctx, k, c.delta, c.freq, c.mem)
	}
}

// Splits returns the current split set — each split key with the fan
// it runs at — in ascending key order (nil when none). The control plane
// stamps it into load reports, so the controller plans around the
// instances the split keys occupy.
func (s *Stage) Splits() []stats.HotKey {
	ar := s.AssignmentRouter()
	if ar == nil {
		return nil
	}
	st := ar.Assignment().Splits()
	if st == nil {
		return nil
	}
	set := make([]stats.HotKey, 0, st.Len())
	st.Each(func(sp *route.Split) {
		set = append(set, stats.HotKey{Key: sp.Key, Fan: sp.Fan()})
	})
	return set
}

func containsDest(reps []int, d int) bool {
	for _, r := range reps {
		if r == d {
			return true
		}
	}
	return false
}
