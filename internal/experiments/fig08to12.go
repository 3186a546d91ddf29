package experiments

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/compact"
	"repro/internal/readj"
	"repro/internal/stats"
)

// Algorithm-level sweeps (Figs. 8–12): plan-generation time and
// migration cost of Mixed vs MinTable (and Readj/MixedBF in Fig. 12)
// as N_D, θmax, K, R and f vary. Each data point averages `sweepRounds`
// plan/fluctuate cycles after one warm-up adjustment.

const sweepRounds = 8

func defCfg() balance.Config {
	return balance.Config{ThetaMax: defTheta, TableMax: defNA, Beta: defBeta}
}

// sweepPoint runs one planner at one parameter setting, for both
// window sizes the paper reports (w = 1 and w = 5).
func sweepPoint(p balance.Planner, cfg balance.Config, k, nd, w int, f float64, seed int64) planMetrics {
	return sweepPointN(p, cfg, k, nd, w, f, seed, sweepRounds)
}

// sweepPointN is sweepPoint with an explicit round count, for the
// expensive planners (MixedBF, tuned Readj).
func sweepPointN(p balance.Planner, cfg balance.Config, k, nd, w int, f float64, seed int64, rounds int) planMetrics {
	sim := newPlanSim(k, defZ, f, nd, w, seed)
	// Warm-up: one adjustment so the routing table is realistic.
	runPlanner(sim, p, cfg, 1)
	return runPlanner(sim, p, cfg, rounds)
}

// Fig08 regenerates Fig. 8: performance with varying N_D.
func Fig08() *Result {
	r := &Result{
		ID:     "fig08",
		Title:  "Plan generation time and migration cost vs N_D",
		Header: []string{"N_D", "Mixed ms", "MinTable ms", "Mixed mig% w1", "MinTable mig% w1", "Mixed mig% w5", "MinTable mig% w5"},
		Notes:  "Mixed migrates far less than MinTable; w=5 cheapens migration",
	}
	for _, nd := range []int{5, 10, 15, 20, 25, 30, 35, 40} {
		mx1 := sweepPoint(balance.Mixed{}, defCfg(), defK, nd, 1, defF, 11)
		mt1 := sweepPoint(balance.MinTable{}, defCfg(), defK, nd, 1, defF, 11)
		mx5 := sweepPoint(balance.Mixed{}, defCfg(), defK, nd, 5, defF, 11)
		mt5 := sweepPoint(balance.MinTable{}, defCfg(), defK, nd, 5, defF, 11)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(nd), ms(mx1.GenTime), ms(mt1.GenTime),
			f2(mx1.MigPct), f2(mt1.MigPct), f2(mx5.MigPct), f2(mt5.MigPct),
		})
	}
	return r
}

// Fig09 regenerates Fig. 9: performance with varying θmax.
func Fig09() *Result {
	r := &Result{
		ID:     "fig09",
		Title:  "Plan generation time and migration cost vs theta_max",
		Header: []string{"theta", "Mixed ms", "MinTable ms", "Mixed mig% w1", "MinTable mig% w1", "Mixed mig% w5", "MinTable mig% w5"},
		Notes:  "MinTable migrates less at every looser theta; Mixed falls overall but rises once, at theta 0.05 → 0.08 (4.09 → 4.87 % at w = 1, 1.33 → 1.46 % at w = 5); MinTable migrates at least as much as Mixed at every theta (1.0–1.6x at w = 1, 1.7–3.0x at w = 5), and w = 5 migrates less than w = 1",
	}
	for _, th := range []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.3, 0.4, 0.5} {
		cfg := defCfg()
		cfg.ThetaMax = th
		mx1 := sweepPoint(balance.Mixed{}, cfg, defK, defND, 1, defF, 13)
		mt1 := sweepPoint(balance.MinTable{}, cfg, defK, defND, 1, defF, 13)
		mx5 := sweepPoint(balance.Mixed{}, cfg, defK, defND, 5, defF, 13)
		mt5 := sweepPoint(balance.MinTable{}, cfg, defK, defND, 5, defF, 13)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.2f", th), ms(mx1.GenTime), ms(mt1.GenTime),
			f2(mx1.MigPct), f2(mt1.MigPct), f2(mx5.MigPct), f2(mt5.MigPct),
		})
	}
	return r
}

// Fig10 regenerates Fig. 10: performance with varying key-domain size.
func Fig10() *Result {
	r := &Result{
		ID:     "fig10",
		Title:  "Plan generation time and migration cost vs K",
		Header: []string{"K", "Mixed ms", "MinTable ms", "Mixed mig% w1", "MinTable mig% w1", "Mixed mig% w5", "MinTable mig% w5"},
		Notes:  "Mixed stays stable across domain sizes; migration cost drops at w=5",
	}
	for _, k := range []int{5000, 10000, 100000, 1000000} {
		mx1 := sweepPoint(balance.Mixed{}, defCfg(), k, defND, 1, defF, 17)
		mt1 := sweepPoint(balance.MinTable{}, defCfg(), k, defND, 1, defF, 17)
		mx5 := sweepPoint(balance.Mixed{}, defCfg(), k, defND, 5, defF, 17)
		mt5 := sweepPoint(balance.MinTable{}, defCfg(), k, defND, 5, defF, 17)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(k), ms(mx1.GenTime), ms(mt1.GenTime),
			f2(mx1.MigPct), f2(mt1.MigPct), f2(mx5.MigPct), f2(mt5.MigPct),
		})
	}
	return r
}

// Fig11 regenerates Fig. 11: the compact representation's effect —
// plan time vs discretization degree R (with the original key space as
// baseline) and the induced load-estimation error across θmax settings.
// The key domain is scaled to 10^6 keys with a matching tuple budget:
// §IV's optimization targets statistics streams of "millions of unique
// keys", where per-key planning is the bottleneck.
func Fig11() *Result {
	const (
		bigK      = 1000000
		bigBudget = 1000000
		rounds    = 3
	)
	r := &Result{
		ID:     "fig11",
		Title:  "Compact representation: plan time and load-estimation error vs R (K=1e6)",
		Header: []string{"R", "plan ms", "estErr% th=0", "estErr% th=0.02", "estErr% th=0.08", "estErr% th=0.15"},
		Notes: "compact.Build dominates the compact planner's time, which does not beat key-space planning at any R from 1 to 256 (plan ms); " +
			"estimation error stays below 1% except at θ 0.15 for R 128 and 256 (1.06% and 1.70%)",
	}
	point := func(p balance.Planner) planMetrics {
		sim := newPlanSimBudget(bigK, defZ, defF, defND, 1, 19, bigBudget)
		runPlanner(sim, p, defCfg(), 1)
		return runPlanner(sim, p, defCfg(), rounds)
	}
	// Baseline: the key-space Mixed planner on the same stream.
	base := point(balance.Mixed{})
	r.Rows = append(r.Rows, []string{"orig-key-space", ms(base.GenTime), "-", "-", "-", "-"})

	for _, R := range []int64{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		cm := compact.Planner{R: R}
		pm := point(cm)
		row := []string{fmt.Sprint(R), ms(pm.GenTime)}
		// Estimation error measured on a fresh snapshot per θmax (the
		// θ setting shifts the post-plan load shape slightly).
		for _, th := range []float64{0, 0.02, 0.08, 0.15} {
			cfg := defCfg()
			cfg.ThetaMax = th
			sim := newPlanSimBudget(bigK, defZ, defF, defND, 1, 19, bigBudget)
			runPlanner(sim, cm, cfg, 2)
			sp := compact.Build(sim.snapshot(), R)
			row = append(row, fmt.Sprintf("%.4f", sp.LoadEstimationError()))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig12 regenerates Fig. 12: scheduling efficiency and migration cost
// with varying distribution-change frequency f, comparing Mixed,
// MinTable, Readj and MixedBF (θmax = 0.08 as in the paper).
func Fig12() *Result {
	r := &Result{
		ID:     "fig12",
		Title:  "Plan time and migration cost vs fluctuation rate f",
		Header: []string{"f", "Mixed ms", "MinTable ms", "Readj ms", "MixedBF ms", "Mixed mig%", "MinTable mig%", "Readj mig%", "MixedBF mig%"},
		Notes:  "Mixed ≪ Readj ≪ MixedBF on plan time; Mixed migrates less than MinTable and Readj at every f (0.53 → 4.41 %)",
	}
	// Readj at its best σ, found by the same tuning the paper applied.
	readjTuned := plannerFunc{"Readj", func(s *stats.Snapshot, cfg balance.Config) *balance.Plan {
		return readj.Tune(s, cfg, nil)
	}}
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		mx := sweepPoint(balance.Mixed{}, defCfg(), defK, defND, 1, f, 23)
		mt := sweepPoint(balance.MinTable{}, defCfg(), defK, defND, 1, f, 23)
		rj := sweepPointN(readjTuned, defCfg(), defK, defND, 1, f, 23, 3)
		bf := sweepPointN(balance.MixedBF{MaxTrials: 128}, defCfg(), defK, defND, 1, f, 23, 3)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.1f", f),
			ms(mx.GenTime), ms(mt.GenTime), ms(rj.GenTime), ms(bf.GenTime),
			f2(mx.MigPct), f2(mt.MigPct), f2(rj.MigPct), f2(bf.MigPct),
		})
	}
	return r
}

// plannerFunc adapts a closure to balance.Planner.
type plannerFunc struct {
	name string
	fn   func(*stats.Snapshot, balance.Config) *balance.Plan
}

// Name implements balance.Planner.
func (p plannerFunc) Name() string { return p.name }

// Plan implements balance.Planner.
func (p plannerFunc) Plan(s *stats.Snapshot, cfg balance.Config) *balance.Plan {
	return p.fn(s, cfg)
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
