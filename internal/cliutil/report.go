package cliutil

import (
	"fmt"
	"io"
	"time"

	"servicefridge/internal/core"
	"servicefridge/internal/engine"
	"servicefridge/internal/fridge"
	"servicefridge/internal/metrics"
	"servicefridge/internal/telemetry"
)

// RunReport writes the standard single-run report for a completed run:
// the header line, the response-time table, power/violation/migration
// lines, the ServiceFridge zone section when the scheme ran one, and the
// SLO outcome when telemetry was attached. cmd/fridge prints this to
// stdout and the control plane embeds the same text in its /result
// documents; both bind the scenario's telemetry, so a session and a CLI
// run with the same scenario and seed produce identical reports.
func RunReport(w io.Writer, res *engine.Result, tel *telemetry.Telemetry, sloTarget time.Duration) {
	cfg := res.Config
	fmt.Fprintf(w, "scheme=%s budget=%.0f%% workers=%d regions=%v sim=%v\n\n",
		cfg.Scheme, cfg.BudgetFraction*100, cfg.Workers, cfg.Spec.RegionNames(), cfg.Warmup+cfg.Duration)

	tb := metrics.NewTable("Response time (post-warmup)", "region", "count", "mean", "p90", "p95", "p99")
	for _, region := range cfg.Spec.RegionNames() {
		s := res.Summary(region)
		if s.Count == 0 {
			continue
		}
		tb.Rowf(region, s.Count, s.Mean, s.P90, s.P95, s.P99)
	}
	fmt.Fprintln(w, tb)

	fmt.Fprintf(w, "power: cap=%.1fW mean-dynamic=%.1fW peak-dynamic=%.1fW range=%.1fW\n",
		float64(res.Budget.Cap()), float64(res.Meter.MeanDynamic()),
		float64(res.Meter.PeakDynamic()), float64(res.Meter.DynamicRange()))

	over, samples := res.BudgetViolations()
	fmt.Fprintf(w, "budget violations: %d / %d samples\n", over, samples)
	fmt.Fprintf(w, "migrations: %d  container starts: %d\n", res.Orch.Migrations(), res.Orch.Started())

	if res.Fridge != nil {
		fmt.Fprintln(w)
		low, unc, high := core.Levels(res.Fridge.Levels())
		fmt.Fprintf(w, "criticality: high=%v uncertain=%v low=%v\n", high, unc, low)
		for _, z := range []fridge.Zone{fridge.Cold, fridge.Warm, fridge.Hot} {
			var names []string
			for _, s := range res.Fridge.ZoneServers(z) {
				names = append(names, s.Name())
			}
			fmt.Fprintf(w, "zone %-5s freq=%v servers=%v\n", z, res.Fridge.ZoneFreq(z), names)
		}
		fmt.Fprintf(w, "algorithm-1: promotions=%d demotions=%d\n",
			res.Fridge.Promotions(), res.Fridge.Demotions())
	}

	if tel != nil {
		fmt.Fprintln(w)
		any := false
		for _, r := range tel.SLOReport() {
			if r.FirstViolation < 0 {
				continue
			}
			any = true
			frac := float64(r.ViolationTicks) / float64(r.EvalTicks)
			fmt.Fprintf(w, "slo %-10s first violation t=%.0fs, in violation %.0f%% of evaluated ticks\n",
				r.Series, r.FirstViolation.Seconds(), 100*frac)
		}
		if !any {
			fmt.Fprintf(w, "slo: no violations (p95 target %v)\n", sloTarget)
		}
	}
}
