package experiments

import (
	"fmt"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
)

// Extension experiments go beyond the paper's figures: the scale-out study
// the title promises ("unleashing the scalability potential") and an
// open-loop tail study past the closed-loop saturation point. They are
// registered separately so `-run all` regenerates exactly the paper.

var extensions = []Experiment{
	{"ext-scale", "Extension: scale-out — ServiceFridge vs Capping as the cluster grows", ExtScaleOut},
	{"ext-openloop", "Extension: open-loop tail latency under an 80% budget", ExtOpenLoop},
	{"ext-events", "Extension: controller event timeline (Figure-13-style narrative)", ExtEvents},
	{"ext-critpath", "Extension: critical-path blame attribution vs MCF ranking (Kendall tau)", ExtCritPath},
	{"ext-slo", "Extension: SLO time-to-violation and headroom vs power budget", ExtSLO},
	{"ext-scenarios", "Extension: schemes under time-varying traffic shapes and trace replay", ExtScenarios},
}

// Extensions returns the beyond-the-paper experiments.
func Extensions() []Experiment { return append([]Experiment(nil), extensions...) }

// ExtScaleOut grows the cluster from the paper's 4 workers to 8 and 12
// while scaling the offered load proportionally, and compares
// ServiceFridge with uniform Capping at an 80% budget. The criticality
// advantage should persist (or grow) with scale: more servers give the
// zone partitioning more room.
func ExtScaleOut(seed uint64) []*metrics.Table {
	tb := metrics.NewTable("Extension: region-A mean/p90 at 80% budget vs cluster size",
		"workers", "cores", "Capping mean", "Capping p90", "Fridge mean", "Fridge p90", "fridge advantage")
	// Cluster sizes are independent (each calibrates then compares two
	// schemes); rows land in size order regardless of completion order.
	rows := parMap([]int{0, 4, 8}, func(extra int) []any {
		workers := 4 + extra
		loadPer := 25 * workers / 4
		replicas := workers / 4
		base := engine.Config{
			Seed:         seed,
			ExtraWorkers: extra,
			PoolWorkers:  map[string]int{"A": loadPer, "B": loadPer},
			Warmup:       5 * time.Second,
			Duration:     15 * time.Second,
			ProfLabel:    "ext-scale",
		}
		// Run a configuration with every function service scaled to
		// workers/4 replicas, so single containers do not bottleneck the
		// larger clusters.
		runScaled := func(cfg engine.Config) *engine.Result {
			res := engine.Build(cfg)
			if replicas > 1 {
				for _, svc := range cfg.Spec.FunctionServices() {
					res.Orch.Scale(svc, replicas, res.Cluster.Workers())
				}
			}
			res.Finish()
			return res
		}
		calCfg := base
		calCfg.Spec = app.TwoRegionStudy()
		maxReq := runScaled(calCfg).PeakDraw()
		run := func(s engine.SchemeName) metrics.Summary {
			cfg := base
			cfg.Spec = app.TwoRegionStudy()
			cfg.Scheme = s
			cfg.BudgetFraction = 0.8
			cfg.MaxRequired = maxReq
			return runScaled(cfg).Summary("A")
		}
		capping := run(engine.Capping)
		fridge := run(engine.ServiceFridge)
		adv := 1 - float64(fridge.Mean)/float64(capping.Mean)
		return []any{workers, (workers + 1) * 6,
			capping.Mean, capping.P90, fridge.Mean, fridge.P90, pct(adv)}
	})
	for _, row := range rows {
		tb.Rowf(row...)
	}
	return []*metrics.Table{tb}
}

// ExtOpenLoop probes tails with open-loop arrivals: requests keep coming
// regardless of completions, so a scheme that starves the critical path
// accumulates queue, unlike in the self-limiting closed-loop runs.
func ExtOpenLoop(seed uint64) []*metrics.Table {
	// Calibrate: measure baseline closed-loop throughput, then offer 80%
	// of it open-loop so the uncapped system is stable but capping below
	// requirement visibly bites.
	cal := calibratedClosedLoop(seed, "study", 25)
	rateA, rateB := cal.rate(0.8, "A"), cal.rate(0.8, "B")
	maxReq := cal.peak

	tb := metrics.NewTable(
		fmt.Sprintf("Extension: open-loop (A %.1f req/s, B %.1f req/s) at 80%% budget", rateA, rateB),
		"scheme", "A mean", "A p99", "B mean", "B p99", "mean dyn power")
	schemes := []engine.SchemeName{engine.Baseline, engine.Capping, engine.ServiceFridge}
	results := parMap(schemes, func(scheme engine.SchemeName) *engine.Result {
		return engine.Run(engine.Config{
			Seed:           seed,
			Scheme:         scheme,
			BudgetFraction: 0.8,
			MaxRequired:    maxReq,
			OpenLoopRate:   map[string]float64{"A": rateA, "B": rateB},
			Warmup:         5 * time.Second,
			Duration:       20 * time.Second,
			ProfLabel:      "ext-openloop",
		})
	})
	for i, scheme := range schemes {
		res := results[i]
		a, b := res.Summary("A"), res.Summary("B")
		tb.Rowf(string(scheme), a.Mean, a.P99, b.Mean, b.P99,
			fmt.Sprintf("%.1fW", float64(res.Meter.MeanDynamic())))
	}
	return []*metrics.Table{tb}
}
