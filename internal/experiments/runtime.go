package experiments

import (
	"fmt"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/sim"
	"servicefridge/internal/workload"
)

// Figure12 reproduces the per-microservice operating frequencies chosen by
// ServiceFridge at an 80% power budget under the four A:B request
// scenarios: critical services stay at 2.4GHz while non-critical ones are
// throttled, converging to a uniform setting when every service shares one
// criticality level (pure-B traffic).
func Figure12(seed uint64) []*metrics.Table {
	maxReq := calibrated(seed)
	header := []string{"microservice"}
	for _, mx := range mixes() {
		header = append(header, "A:B="+mx.Label)
	}
	tb := metrics.NewTable("Figure 12: operating frequency per microservice at 80% power", header...)

	// One run per access scenario, fanned out across the worker pool.
	perMix := parMap(mixes(), func(mx struct {
		Label string
		A, B  float64
	}) map[string]string {
		res := engine.Run(engine.Config{
			Seed:           seed,
			Scheme:         engine.ServiceFridge,
			BudgetFraction: 0.8,
			MaxRequired:    maxReq,
			PoolWorkers:    mixPools(mx.A, mx.B),
			Warmup:         5 * time.Second,
			Duration:       20 * time.Second,
			ProfLabel:      "fig12",
		})
		cells := make(map[string]string, len(app.StudyServiceNames()))
		for _, svc := range app.StudyServiceNames() {
			nodes := res.Orch.NodesOf(svc)
			cell := "-"
			if len(nodes) > 0 {
				cell = nodes[0].Freq().String()
			}
			cells[svc] = cell
		}
		return cells
	})
	freqs := map[string][]string{}
	for _, cells := range perMix {
		for _, svc := range app.StudyServiceNames() {
			freqs[svc] = append(freqs[svc], cells[svc])
		}
	}
	for _, svc := range app.StudyServiceNames() {
		cells := append([]string{svc}, freqs[svc]...)
		tb.Row(cells...)
	}
	return []*metrics.Table{tb}
}

// Figure13 reproduces the time-series study: request traffic switches
// between low (5 workers), medium (15) and high (25) every 60 seconds
// under an 80% budget; the operating frequency and attributed dynamic
// power of ticketinfo (high criticality), seat (uncertain) and config
// (low) are tracked over time.
func Figure13(seed uint64) []*metrics.Table {
	maxReq := calibrated(seed)
	tracked := []string{"ticketinfo", "seat", "config"}
	res := engine.Run(engine.Config{
		Seed:           seed,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: 0.8,
		MaxRequired:    maxReq,
		Mix:            workload.Ratio(1, 1),
		Phases: []workload.Phase{
			{Duration: 60 * time.Second, Workers: 5},
			{Duration: 60 * time.Second, Workers: 15},
			{Duration: 60 * time.Second, Workers: 25},
		},
		Warmup:      5 * time.Second,
		Duration:    175 * time.Second,
		TrackFreqOf: tracked,
		ProfLabel:   "fig13",
	})

	header := []string{"t (s)", "workers"}
	for _, svc := range tracked {
		header = append(header, svc+" freq", svc+" power")
	}
	tb := metrics.NewTable("Figure 13: frequency and power of representative microservices (80% budget)", header...)

	powerOf := map[string]map[sim.Time]float64{}
	for _, svc := range tracked {
		powerOf[svc] = map[sim.Time]float64{}
		for _, p := range res.Meter.TagPowerSeries(svc) {
			powerOf[svc][p.At] = float64(p.Power)
		}
	}
	for sec := 10; sec <= 180; sec += 10 {
		at := sim.Time(time.Duration(sec) * time.Second)
		workers := 5
		if sec > 60 {
			workers = 15
		}
		if sec > 120 {
			workers = 25
		}
		cells := []string{fmt.Sprintf("%d", sec), fmt.Sprintf("%d", workers)}
		for _, svc := range tracked {
			freq := "-"
			for _, fp := range res.FreqSeries[svc] {
				if fp.At <= at {
					freq = fp.Freq.String()
				} else {
					break
				}
			}
			cells = append(cells, freq, fmt.Sprintf("%.1fW", powerOf[svc][at]))
		}
		tb.Row(cells...)
	}
	return []*metrics.Table{tb}
}

// Figure14 reproduces the mis-estimation study: ServiceFridge guided by a
// wrong request proportion (over- or under-estimating criticality)
// degrades QoS relative to correctly computed MCF, across budgets.
func Figure14(seed uint64) []*metrics.Table {
	maxReq := calibrated(seed)
	budgets := []float64{1.0, 0.95, 0.90, 0.85, 0.80, 0.75}

	// Four budget sweeps: each traffic mix under a correctly computed
	// and a mis-computed MCF, each forking its budget cells from one
	// warmed donor. The override is set before the warmup, which never
	// reads it: only control ticks do.
	type sweep struct {
		a, b     float64
		override map[string]float64
		region   string
	}
	sweeps := []sweep{
		{30, 0, nil, "A"},
		{30, 0, map[string]float64{"B": 30}, "A"},
		{0, 30, nil, "B"},
		{0, 30, map[string]float64{"A": 30}, "B"},
	}
	perSweep := parMap(sweeps, func(sw sweep) []metrics.Summary {
		donor := engine.Build(engine.Config{
			Seed:           seed,
			Scheme:         engine.ServiceFridge,
			BudgetFraction: budgets[0],
			MaxRequired:    maxReq,
			PoolWorkers:    mixPools(sw.a, sw.b),
			Warmup:         5 * time.Second,
			Duration:       20 * time.Second,
			ProfLabel:      "fig14",
		})
		donor.Fridge.LoadOverride = sw.override
		return engine.ForkEach(donor, budgets,
			func(res *engine.Result, _ float64) metrics.Summary { return res.Summary(sw.region) })
	})

	// (a) Real traffic 30:0; the mis-computed controller believes 0:30
	// (over-estimates how light the situation is).
	ta := metrics.NewTable("Figure 14 (a): A:B=30:0, MCF mis-computed as 0:30 (region A QoS)",
		"budget", "mean (correct)", "mean (mis-computed)", "p99 (correct)", "p99 (mis-computed)")
	// (b) Real traffic 0:30; the controller believes 30:0
	// (under-estimates the criticality of the live mix).
	tbl := metrics.NewTable("Figure 14 (b): A:B=0:30, MCF mis-computed as 30:0 (region B QoS)",
		"budget", "mean (correct)", "mean (mis-computed)", "p99 (correct)", "p99 (mis-computed)")
	for bi, bud := range budgets {
		goodA, badA := perSweep[0][bi], perSweep[1][bi]
		goodB, badB := perSweep[2][bi], perSweep[3][bi]
		ta.Rowf(pct(bud), goodA.Mean, badA.Mean, goodA.P99, badA.P99)
		tbl.Rowf(pct(bud), goodB.Mean, badB.Mean, goodB.P99, badB.P99)
	}
	return []*metrics.Table{ta, tbl}
}
