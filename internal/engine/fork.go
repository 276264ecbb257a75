package engine

import (
	"fmt"
	"math"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
	"servicefridge/internal/workload"
)

// Forking. A RunState can only be restored into the Result it was taken
// from (calendar closures capture pointers into the live object graph),
// so a what-if fork is not a second engine: it is a detour on the same
// one. Every RunState owns its data, so any RunState of a run restores
// at any time and in any order, however the run was perturbed in between.
// A what-if bookmarks where the run is paused, restores (or advances to)
// a bookmark at the fork point, explores the perturbed branch to
// completion, and restores the pause bookmark: the detour is invisible to
// the run's own outputs, byte-identical to a run that never forked. A
// caller answering many what-ifs keeps bookmarks of the unperturbed run
// and advances the nearest one with ForkAt when it has none at a fork
// point.

// Total returns the simulation end time of the run: Warmup+Duration, or
// the phase schedule's (or traffic profile's) end when that is longer —
// the deadline Finish advances the clock to.
func (r *Result) Total() sim.Time {
	cfg := r.Config
	total := cfg.Warmup + cfg.Duration
	if ph := phaseLength(cfg.Phases); ph > total {
		total = ph
	}
	if cfg.Profile != nil {
		if l := cfg.Profile.Length(); l > total {
			total = l
		}
	}
	return sim.Time(total)
}

// ForkEach is the budget-sweep loop: it warms donor to its
// budget-independence barrier (WarmBarrier), snapshots, and forks one
// cell per fraction — restore, SetBudgetFraction, Finish, collect. Every
// fork replays exactly the events a run built at that fraction would, so
// each result equals that single run's. Cells run in order on the donor's
// object graph; callers fan independent donors out instead.
func ForkEach[R any](donor *Result, fractions []float64, collect func(*Result, float64) R) []R {
	donor.Engine.RunUntil(donor.WarmBarrier())
	snap := donor.Snapshot()
	out := make([]R, len(fractions))
	for i, frac := range fractions {
		donor.Restore(snap)
		donor.SetBudgetFraction(frac)
		donor.Finish()
		out[i] = collect(donor, frac)
	}
	return out
}

// ReplayTo rewinds the run to base and replays it forward to at. base must
// have been taken from this Result at a time <= at.
func (r *Result) ReplayTo(base *RunState, at sim.Time) error {
	if at < base.Now() {
		return fmt.Errorf("engine: replay time %v precedes the base snapshot at %v", at, base.Now())
	}
	if total := r.Total(); at > total {
		return fmt.Errorf("engine: replay time %v exceeds the run's end %v", at, total)
	}
	r.Restore(base)
	r.Engine.RunUntil(at)
	r.ResetStats()
	return nil
}

// ForkAt replays the run from base to the fork instant and returns a
// fresh bookmark there. A typical what-if is
//
//	paused := res.Snapshot()        // where the run is
//	snap, _ := res.ForkAt(base, at) // the unperturbed state at the fork
//	...perturb (budget, clamp, load)...
//	res.Finish()                    // perturbed branch to completion
//	...read stats...
//	res.Restore(paused)             // resume where the run was paused
//
// and a later what-if at the same instant starts from res.Restore(snap).
func (r *Result) ForkAt(base *RunState, at sim.Time) (*RunState, error) {
	if err := r.ReplayTo(base, at); err != nil {
		return nil, err
	}
	return r.Snapshot(), nil
}

// ScaleWorkers multiplies the configured closed-loop worker count by
// factor (rounded to nearest, floored at one worker when the original
// pool was non-empty) — the what-if load perturbation. Region pools and
// open loops are left untouched.
func (r *Result) ScaleWorkers(factor float64) {
	n := int(math.Round(float64(r.Config.Workers) * factor))
	if n < 1 && r.Config.Workers > 0 && factor > 0 {
		n = 1
	}
	if n < 0 {
		n = 0
	}
	r.Gen.SetWorkers(n)
}

// ClampFreq installs a max-frequency clamp on every server (max <= 0
// removes it) — the what-if frequency perturbation. Schemes keep issuing
// DVFS decisions; the clamp bounds what the hardware honours.
func (r *Result) ClampFreq(max cluster.GHz) {
	r.Cluster.SetAllMaxFreq(max)
}

// ScaleTraffic multiplies every profile-driven setpoint by factor — the
// what-if load perturbation for time-varying runs (ScaleWorkers covers the
// steady closed-loop generator). Current levels re-apply immediately;
// future setpoints scale as they fire.
func (r *Result) ScaleTraffic(factor float64) error {
	if r.Driver == nil {
		return fmt.Errorf("engine: run has no traffic profile (ScaleTraffic applies to Profile-driven runs)")
	}
	if factor <= 0 {
		return fmt.Errorf("engine: traffic factor %v must be positive", factor)
	}
	r.Driver.SetScale(factor)
	return nil
}

// SwapProfile replaces the remaining traffic schedule with p from the
// current simulation time on — the what-if "what if the traffic had turned
// into X at t" perturbation. Past-due setpoints of p apply immediately
// (latest per region wins); regions p never mentions keep their levels.
func (r *Result) SwapProfile(p *workload.Profile) error {
	if r.Driver == nil {
		return fmt.Errorf("engine: run has no traffic profile to swap")
	}
	return r.Driver.Swap(p)
}
