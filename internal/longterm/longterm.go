// Package longterm implements the paper's stated future work (§VII):
// "a new mechanism, to support smooth workload redistribution suitable
// to both long-term workload shifts and short-term workload
// fluctuations."
//
// The paper's taxonomy (§I): short-term fluctuations are random and
// transient — the intra-operator rebalancer's job; long-term shifts
// are sustained distribution changes that need heavyweight resource
// scheduling (adding or returning instances, cf. DRS [10]). The two
// must not be confused: reacting to a transient with a scale-out
// wastes resources, and trying to rebalance away a genuine capacity
// shortfall thrashes the routing table.
//
// Detector separates them by watching the *total* offered load against
// total capacity: skew moves load between instances but conserves the
// total, so a sustained total-utilization trend is exactly the
// long-term component. An EWMA smooths the fluctuations out; patience
// and cooldown windows stop transients and fresh scale-outs from
// triggering again.
package longterm

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/stats"
)

// Action is a resource recommendation.
type Action int

// Detector outcomes.
const (
	// Hold means the current instance set suffices.
	Hold Action = iota
	// ScaleOut recommends adding an instance (sustained overload).
	ScaleOut
	// ScaleIn recommends removing an instance (sustained idleness).
	ScaleIn
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	default:
		return "hold"
	}
}

// Detector watches utilization over intervals and recommends resource
// actions once a trend is sustained. The zero value is not usable; use
// NewDetector.
type Detector struct {
	// Alpha is the EWMA smoothing factor in (0, 1]; higher reacts
	// faster. Default 0.3.
	Alpha float64
	// HighUtil is the sustained-utilization threshold above which the
	// operator needs more instances. Default 0.95.
	HighUtil float64
	// LowUtil is the threshold below which an instance could be
	// returned. Default 0.5.
	LowUtil float64
	// Patience is how many consecutive intervals the EWMA must sit
	// beyond a threshold before acting — the short-vs-long-term
	// discriminator. Default 5.
	Patience int
	// Cooldown is how many intervals to hold after any action while
	// the system re-converges. Default 5.
	Cooldown int

	ewma     float64
	seeded   bool
	hot      int
	cold     int
	cooldown int
}

// NewDetector returns a detector with the documented defaults.
func NewDetector() *Detector {
	return &Detector{Alpha: 0.3, HighUtil: 0.95, LowUtil: 0.5, Patience: 5, Cooldown: 5}
}

// Utilization returns the current smoothed utilization estimate.
func (d *Detector) Utilization() float64 { return d.ewma }

// Observe feeds one interval's total offered load and total service
// capacity and returns the recommendation.
func (d *Detector) Observe(totalLoad, totalCapacity int64) Action {
	if totalCapacity <= 0 {
		return Hold
	}
	u := float64(totalLoad) / float64(totalCapacity)
	if !d.seeded {
		d.ewma = u
		d.seeded = true
	} else {
		d.ewma = d.Alpha*u + (1-d.Alpha)*d.ewma
	}
	if d.cooldown > 0 {
		d.cooldown--
		return Hold
	}
	switch {
	case d.ewma > d.HighUtil:
		d.hot++
		d.cold = 0
	case d.ewma < d.LowUtil:
		d.cold++
		d.hot = 0
	default:
		d.hot, d.cold = 0, 0
	}
	if d.hot >= d.Patience {
		d.hot, d.cold = 0, 0
		d.cooldown = d.Cooldown
		return ScaleOut
	}
	if d.cold >= d.Patience {
		d.hot, d.cold = 0, 0
		d.cooldown = d.Cooldown
		return ScaleIn
	}
	return Hold
}

// AutoScaler is the long-term half of the unified control plane: a
// control.Policy that feeds the detector with each interval's total
// offered load and answers sustained trends with elastic commands —
// ScaleOut under sustained overload, ScaleIn under sustained idleness,
// both applied between intervals by the stage's control.Executor
// (scale-in drains the retiring instance and migrates its keys'
// windowed state back to the survivors). Run it on the same per-stage loop as the short-term
// rebalance controller (topology.WithPolicy after WithAlgorithm): the
// loop runs policies in order, so the rebalancer handles fluctuations
// each interval before the detector judges the long-term trend.
type AutoScaler struct {
	// Detector decides against the per-task service capacity the stage
	// reports.
	Detector *Detector

	// History records every applied resize with its interval; a
	// recommendation suppressed by resizability or the one-instance
	// floor leaves no event.
	History []Event
	// ScaleOuts and ScaleIns count applied resizes.
	ScaleOuts int
	ScaleIns  int
}

// Event is one recommendation.
type Event struct {
	Interval int64
	Action   Action
	Util     float64
}

// Decide implements control.Policy: one interval's long-term judgment.
// The detector always observes (its EWMA must track utilization even
// on stages that cannot resize); commands are only emitted for
// resizable stages (assignment routing over a consistent-hash ring —
// exactly what the executor can apply), and scale-in additionally
// respects the one-instance floor.
func (a *AutoScaler) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	// The snapshot records *admitted* load; when backpressure
	// throttled the spout, true demand is higher by the throttle
	// ratio. Without the correction a saturated system reports
	// comfortable utilization forever (demand hidden by its own
	// symptom).
	demand := snap.TotalCost()
	if env.Emitted > 0 && env.Budget > env.Emitted {
		demand = demand * env.Budget / env.Emitted
	}
	act := a.Detector.Observe(demand, env.Capacity*int64(env.Tasks))
	if act == Hold {
		return nil
	}
	// History and counters record *applied* actions only (the summary
	// says "applied"): a recommendation suppressed by resizability or
	// the one-instance floor leaves no event behind.
	record := func() {
		a.History = append(a.History, Event{Interval: env.Interval, Action: act, Util: a.Detector.Utilization()})
	}
	switch act {
	case ScaleOut:
		if env.Resizable {
			record()
			a.ScaleOuts++
			return []control.Command{control.ScaleOut{}}
		}
	case ScaleIn:
		// A stage never retires its only instance.
		if env.Resizable && env.Tasks > 1 {
			record()
			a.ScaleIns++
			return []control.Command{control.ScaleIn{}}
		}
	}
	return nil
}

// Summary renders the action history.
func (a *AutoScaler) Summary() string {
	s := fmt.Sprintf("scale-outs applied: %d, scale-ins applied: %d\n", a.ScaleOuts, a.ScaleIns)
	for _, ev := range a.History {
		s += fmt.Sprintf("  interval %d: %s (util %.2f)\n", ev.Interval, ev.Action, ev.Util)
	}
	return s
}
