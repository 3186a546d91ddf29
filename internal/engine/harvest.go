package engine

import (
	"fmt"

	"repro/internal/stats"
)

// HarvestMode selects what Stage.EndInterval's snapshot describes and
// how it is built. The zero value is the original behavior.
type HarvestMode int

const (
	// HarvestTouched (default) snapshots only the keys observed during
	// the finished interval, gathered from each tracker's dirty list in
	// O(touched keys).
	HarvestTouched HarvestMode = iota
	// HarvestFull snapshots the whole tracked population every
	// interval, untouched keys carrying their last-reported statistics
	// forward, rebuilt from scratch each close — the equivalence oracle
	// for HarvestIncremental.
	HarvestFull
	// HarvestIncremental produces the same full-population snapshot as
	// HarvestFull (pinned bit-identical) from persistent per-task
	// sorted aggregates: each close merges only the interval's dirty
	// keys and additionally publishes per-task Deltas (LastDeltas) so
	// the control plane can ship O(Δkeys) reports.
	HarvestIncremental
)

func (m HarvestMode) retain() stats.RetainMode {
	switch m {
	case HarvestFull:
		return stats.RetainScan
	case HarvestIncremental:
		return stats.RetainMerge
	default:
		return stats.RetainOff
	}
}

func (m HarvestMode) String() string {
	switch m {
	case HarvestTouched:
		return "touched"
	case HarvestFull:
		return "full"
	case HarvestIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("HarvestMode(%d)", int(m))
	}
}

// SetHarvest selects the stage's interval-close mode. Must be called
// while the stage is idle and before any interval has closed (the
// retained aggregates are built forward from the first interval) — the
// engine does so at construction time from Config.Harvest.
func (s *Stage) SetHarvest(m HarvestMode) error {
	if m == s.harvest {
		return nil
	}
	var err error
	for _, t := range s.tasks {
		t.barrier(func(ctx *TaskCtx) {
			if e := ctx.Tracker.SetRetain(m.retain()); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("engine: stage %q: %w", s.Name, err)
		}
	}
	s.harvest = m
	return nil
}

// Harvest returns the stage's interval-close mode.
func (s *Stage) Harvest() HarvestMode { return s.harvest }

// LastDeltas returns the per-task change sets of the most recent
// retained close (HarvestIncremental/HarvestFull), indexed by task.
// Valid until the next EndInterval; nil before the first close or
// under HarvestTouched.
func (s *Stage) LastDeltas() []stats.Delta { return s.lastDeltas }

// restampRetained re-resolves every retained aggregate entry's hash
// destination after a ring resize: carried entries keep the stamp of
// their last touch, and a grown or shrunk ring moves hash arcs of keys
// that never migrate. Runs on the task goroutines; a no-op outside the
// retained modes. Rebalance plans and split churn never change hash
// destinations, so only the resize paths call this.
func (s *Stage) restampRetained() {
	if s.harvest == HarvestTouched {
		return
	}
	ar := s.AssignmentRouter()
	if ar == nil {
		return
	}
	asg := ar.Assignment()
	dones := make([]chan struct{}, len(s.tasks))
	for d, t := range s.tasks {
		dones[d] = t.barrierAsync(func(ctx *TaskCtx) {
			ctx.Tracker.Restamp(func(ks *stats.KeyStat) {
				ks.Dest = d
				ks.Hash = asg.HashDest(ks.Key)
			})
		})
	}
	for _, done := range dones {
		<-done
	}
}
