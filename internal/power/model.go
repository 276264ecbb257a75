// Package power models the electrical side of the testbed: a per-server
// power model calibrated to the 100 W nameplate in Table 2 of the paper, a
// turbostat-like sampling meter, and power-budget bookkeeping used by every
// capping scheme.
//
// The paper reads dynamic power with the Linux turbostat tool; here the
// meter computes it from the same observables a RAPL counter reflects —
// operating frequency and core utilization — through a standard
// CMOS-derived model:
//
//	P(f, u) = P_idle + (P_peak · (f/f_max)³ − P_idle) · u
//
// The cubic term follows P ∝ C·V²·f with voltage scaling roughly linearly
// with frequency in the DVFS range. "Dynamic power" in all reports is
// P − P_idle, matching the paper's usage (its headline result is a 25%
// reduction of the dynamic power range).
package power

import (
	"fmt"
	"math"

	"servicefridge/internal/cluster"
)

// Watts is electrical power in watts.
type Watts float64

func (w Watts) String() string { return fmt.Sprintf("%.1fW", float64(w)) }

// Model converts a server's operating point into power draw.
type Model struct {
	// Idle is the draw of a powered-on but idle server at any frequency.
	Idle Watts
	// Peak is the draw of a fully utilized server at FreqMax. Table 2
	// gives 100 W nameplate per server.
	Peak Watts
	// FMax is the frequency at which Peak is reached.
	FMax cluster.GHz
}

// DefaultModel is calibrated to the paper's testbed: 100 W nameplate,
// ~45% of it idle — typical for the Haswell-EP generation the E5-2620 v3
// belongs to.
func DefaultModel() Model {
	return Model{Idle: 45, Peak: 100, FMax: cluster.FreqMax}
}

// PeakAt returns the fully-utilized draw at frequency f.
func (m Model) PeakAt(f cluster.GHz) Watts {
	ratio := float64(f) / float64(m.FMax)
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	dyn := (float64(m.Peak) - float64(m.Idle)) * math.Pow(ratio, 3)
	return m.Idle + Watts(dyn)
}

// Power returns the draw of a server at frequency f and utilization u.
func (m Model) Power(f cluster.GHz, u float64) Watts {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return m.Idle + Watts(u)*(m.PeakAt(f)-m.Idle)
}

// Predict returns the draw of a server at frequency f carrying load, in
// FreqMax-core units (see Meter.LoadsInto): the same work keeps FreqMax/f
// times the cores busy at f, and utilization saturates at 1. Every
// scheme fits its frequency plan to the budget through this prediction.
func (m Model) Predict(load float64, f cluster.GHz) Watts {
	util := load * float64(cluster.FreqMax) / float64(f)
	if util > 1 {
		util = 1
	}
	return m.Power(f, util)
}
