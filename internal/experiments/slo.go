package experiments

import (
	"fmt"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/telemetry"
)

// ExtSLO sweeps the power budget under open-loop load and asks the SLO
// monitor, per scheme: when does the p95 target first break, what
// fraction of the evaluated run is spent in violation, and how much
// budget headroom remained at the moment of the first violation? The last
// column is the operator's early-warning signal — a scheme that violates
// while headroom remains is wasting budget on non-critical work, which is
// precisely the failure mode ServiceFridge's criticality zones target.
func ExtSLO(seed uint64) []*metrics.Table {
	const (
		warmup   = 5 * time.Second
		duration = 20 * time.Second
		target   = telemetry.DefaultSLOTarget
	)
	// Calibrate like ext-openloop: offer 80% of the baseline closed-loop
	// throughput, so the uncapped system is comfortably stable and any
	// violation is attributable to the budget, not the load.
	cal := calibratedClosedLoop(seed, "study", 25)
	rateA, rateB := cal.rate(0.8, "A"), cal.rate(0.8, "B")
	maxReq := cal.peak

	budgets := []float64{1.0, 0.9, 0.85, 0.8, 0.75}
	report := func(tel *telemetry.Telemetry, scheme engine.SchemeName, budget float64) []any {
		all := tel.SLOReport()[0]
		first, headroom := "never", "-"
		violation := "0.0%"
		if all.FirstViolation >= 0 {
			first = fmt.Sprintf("t=%.0fs", all.FirstViolation.Seconds())
			if all.HasHeadroom {
				headroom = fmt.Sprintf("%.1fW", all.HeadroomAtFirst)
			}
		}
		if all.EvalTicks > 0 {
			violation = pct(float64(all.ViolationTicks) / float64(all.EvalTicks))
		}
		return []any{string(scheme), pct(budget), first, violation, headroom}
	}

	tb := metrics.NewTable(
		fmt.Sprintf("Extension: SLO violations (all-regions p95 > %v) vs power budget, open-loop A %.1f/s B %.1f/s",
			target, rateA, rateB),
		"scheme", "budget", "first violation", "violation time", "headroom then")
	// One donor (and one bound telemetry instance) per scheme; each budget
	// fork restores the telemetry alongside the simulation, so its report
	// reads exactly like a single run's.
	perScheme := parMap(engine.AllSchemes(), func(s engine.SchemeName) [][]any {
		tel := telemetry.New(telemetry.Options{
			SLO: telemetry.SLOOptions{Target: target, Grace: warmup},
		})
		donor := engine.Build(engine.Config{
			Seed:           seed,
			Scheme:         s,
			BudgetFraction: budgets[0],
			MaxRequired:    maxReq,
			OpenLoopRate:   map[string]float64{"A": rateA, "B": rateB},
			Warmup:         warmup,
			Duration:       duration,
			Telemetry:      tel,
			ProfLabel:      "ext-slo",
		})
		return engine.ForkEach(donor, budgets,
			func(_ *engine.Result, b float64) []any { return report(tel, s, b) })
	})
	for _, rows := range perScheme {
		for _, row := range rows {
			tb.Rowf(row...)
		}
	}
	return []*metrics.Table{tb}
}
