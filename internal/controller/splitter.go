package controller

import (
	"repro/internal/control"
	"repro/internal/stats"
)

// Splitter is the contention-detection policy of the hot-key splitting
// protocol: each interval it feeds the merged snapshot through a
// stats.HotKeyDetector and, whenever the split set changes, emits one
// SetSplit command carrying the complete new set. The stage's executor
// applies it through the arm/publish/fold machinery; an
// unchanged set emits nothing, so steady state costs one detector scan
// per interval and zero commands.
//
// Run it alongside (typically after) the rebalance Controller on the
// same control loop: the Controller plans the other keys around the
// split set the report carries — a split key stays at its home, its
// load spread over its replicas — and holds while one replica's share
// alone is past Lmax, which only this policy can act on.
type Splitter struct {
	// Det decides which keys are split and at what fan. Required.
	Det *stats.HotKeyDetector

	// Announced counts SetSplit commands emitted (split-set changes).
	Announced int
	// MaxActive tracks the high-water mark of concurrently split keys.
	MaxActive int
}

// NewSplitter builds the policy around a fresh detector: at most
// maxSplit keys split at once, a key entering the set when its interval
// cost reaches enterRatio × the per-task capacity.
func NewSplitter(maxSplit int, enterRatio float64) *Splitter {
	return &Splitter{Det: stats.NewHotKeyDetector(maxSplit, enterRatio)}
}

// Decide implements control.Policy.
func (s *Splitter) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	if !env.Routable {
		return nil
	}
	hot, changed := s.Det.Update(snap.Keys, env.Capacity, env.Tasks)
	if n := s.Det.Active(); n > s.MaxActive {
		s.MaxActive = n
	}
	if !changed {
		return nil
	}
	set := make([]control.SplitSpec, 0, len(hot))
	for _, h := range hot {
		set = append(set, control.SplitSpec{Key: h.Key, Fan: h.Fan})
	}
	s.Announced++
	return []control.Command{control.SetSplit{Set: set}}
}
