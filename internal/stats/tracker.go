package stats

import (
	"repro/internal/state"
	"repro/internal/tuple"
)

// Tracker accumulates per-key measurements inside the current interval
// and keeps the last w intervals' state sizes so S(k, w) can be
// reported. One Tracker serves one operator task; the task feeds it and
// the controller harvests it at interval boundaries (step 1 of the
// Fig. 5 workflow).
//
// Tracker is the statistics face of a task's key directory
// (state.Dir), whose state face is the task's state.Store: both read
// and write the same key records and per-interval lists. It is not
// internally synchronized: in the engine each task owns a private
// directory and the controller merges the trackers' runs, mirroring the
// paper's per-instance load-reporting module.
type Tracker struct {
	d *state.Dir
	// run is the recycled output buffer every close harvests the
	// interval's KeyStats into; ord and ordSpare are the two buffers the
	// close sorts the touched keys between on the way (see sortCostKeys).
	run      []KeyStat
	ord      []costKey
	ordSpare []costKey
}

// NewTracker returns a tracker keeping a state window of w intervals
// (w < 1 is clamped to 1, the paper's minimum, instantaneous state), on
// a directory of its own.
func NewTracker(w int) *Tracker { return TrackerOf(state.NewDir(w, 0)) }

// TrackerOf returns the statistics face of directory d.
func TrackerOf(d *state.Dir) *Tracker { return &Tracker{d: d} }

// ObserveBatch folds a whole batch of tuples into the current interval
// with one call, the entry point the engine's task loop uses so tracker
// accounting is amortized across every tuple of a channel message.
func (t *Tracker) ObserveBatch(ts []tuple.Tuple) { t.d.ObserveBatch(ts) }

// AbsorbKey folds an already-aggregated (cost, freq, mem) contribution
// into k's current interval. The hot-key fold-back path uses it to
// charge a split key's replica work to the key's home task before
// harvest: the adds are plain integer sums, so absorbing replica deltas
// in any order yields the same figures an unsplit run would have
// accumulated tuple by tuple.
func (t *Tracker) AbsorbKey(k tuple.Key, cost, freq, mem int64) { t.d.AbsorbKey(k, cost, freq, mem) }

// AdoptKey seeds windowed memory for a key that just migrated in, so
// S(k,w) remains continuous across migration. The memory is recorded in
// the most recently finished interval (or the current one if none has
// finished yet).
func (t *Tracker) AdoptKey(k tuple.Key, mem int64) { t.d.AdoptKey(k, mem) }

// Keys returns every key with any recorded history in ascending order:
// current-interval observations or a record in a finished interval of
// the window. A key whose last touch has left the window is not listed,
// so a retired key cannot resurrect in scale-in or detector input.
func (t *Tracker) Keys() []tuple.Key { return t.d.Keys() }

// EndInterval closes the directory's interval — for both faces: the
// store's buckets leaving the window expire in the same pass — and
// returns the per-key statistics of the finished interval as a run
// sorted by KeyStatLess: cost c(k), frequency g(k) and the windowed
// memory S(k, w) including the interval just finished. Nothing is
// allocated once the buffers have grown to the working set. The run
// lives in a buffer the tracker recycles: it is the caller's to read
// and to stamp in place (Dest, Hash) until the next close.
func (t *Tracker) EndInterval() []KeyStat {
	tallies := t.d.Close()
	ord := t.ord[:0]
	for i := range tallies {
		ord = append(ord, newCostKey(tallies[i].Cost, uint64(tallies[i].Key), i))
	}
	// Keys are unique within a directory, so (cost, key) alone is the
	// KeyStatLess order; the caller's stamp (one Dest per task) cannot
	// change it.
	ord, t.ordSpare = sortCostKeys(ord, t.ordSpare)
	run := t.run[:0]
	for _, o := range ord {
		ta := &tallies[o.cell]
		run = append(run, KeyStat{Key: ta.Key, Cost: ta.Cost, Freq: ta.Freq, Mem: ta.Mem})
	}
	t.ord, t.run = ord, run
	return run
}
