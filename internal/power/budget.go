package power

import "servicefridge/internal/cluster"

// Budget expresses a cluster-wide power constraint as a fraction of the
// maximum required power, the way the paper's §6 sweeps budgets from 100%
// down to 75%.
type Budget struct {
	// Fraction of maximum power available, in (0, 1].
	Fraction float64
	// Base overrides the nameplate-derived maximum when positive: §6
	// budgets are fractions of the *maximum required power* — the peak
	// the workload actually draws — which experiments measure with a
	// calibration run.
	Base    Watts
	model   Model
	servers int
}

// NewBudget creates a budget for a cluster of n servers under model.
// Fractions outside (0,1] are clamped.
func NewBudget(model Model, n int, fraction float64) Budget {
	if fraction <= 0 {
		fraction = 0.01
	}
	if fraction > 1 {
		fraction = 1
	}
	return Budget{Fraction: fraction, model: model, servers: n}
}

// MaxPower is the budget base: Base when set, otherwise the unconstrained
// cluster draw (every server fully utilized at FreqMax).
func (b Budget) MaxPower() Watts {
	if b.Base > 0 {
		return b.Base
	}
	return b.model.PeakAt(cluster.FreqMax) * Watts(b.servers)
}

// Cap is the admissible cluster draw under the budget.
func (b Budget) Cap() Watts { return b.MaxPower() * Watts(b.Fraction) }

// Violated reports whether the current draw exceeds the cap.
func (b Budget) Violated(current Watts) bool { return current > b.Cap() }
