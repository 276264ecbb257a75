package experiments

import (
	"fmt"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
)

// fig15Budgets is the x-axis of Figure 15.
var fig15Budgets = []float64{1.0, 0.95, 0.90, 0.85, 0.80, 0.75}

// compareConfig is one scheme/budget cell of the §6.4 comparison. label
// is the profile-aggregation handle of the figure the cell belongs to.
func compareConfig(label string, seed uint64, scheme engine.SchemeName, budget float64, keepSpans bool) engine.Config {
	return engine.Config{
		Seed:           seed,
		Scheme:         scheme,
		BudgetFraction: budget,
		MaxRequired:    calibrated(seed),
		PoolWorkers:    studyPools(),
		Warmup:         5 * time.Second,
		Duration:       25 * time.Second,
		KeepSpans:      keepSpans,
		ProfLabel:      label,
	}
}

// compareRun executes one scheme/budget cell of the §6.4 comparison.
func compareRun(label string, seed uint64, scheme engine.SchemeName, budget float64, keepSpans bool) *engine.Result {
	return engine.Run(compareConfig(label, seed, scheme, budget, keepSpans))
}

// Figure15 reproduces the headline comparison: mean and tail response
// times, normalized to the unthrottled execution time, for P-first,
// T-first, ServiceFridge and Capping as the power budget falls from 100%
// to 75% of the maximum required power. The unthrottled baseline and one
// donor per scheme run on the worker pool; each scheme's budget cells fork
// off its donor's warmed snapshot, and the tables are assembled in paper
// order afterwards.
func Figure15(seed uint64) []*metrics.Table {
	type group struct {
		scheme  engine.SchemeName
		budgets []float64
	}
	groups := []group{{engine.Baseline, []float64{1.0}}}
	for _, scheme := range engine.AllSchemes() {
		groups = append(groups, group{scheme, fig15Budgets})
	}
	perGroup := parMap(groups, func(g group) []map[string]metrics.Summary {
		donor := engine.Build(compareConfig("fig15", seed, g.scheme, g.budgets[0], false))
		return engine.ForkEach(donor, g.budgets,
			func(res *engine.Result, _ float64) map[string]metrics.Summary {
				return map[string]metrics.Summary{
					"A": res.Summary("A"),
					"B": res.Summary("B"),
				}
			})
	})
	var summaries []map[string]metrics.Summary
	for _, gs := range perGroup {
		summaries = append(summaries, gs...)
	}
	base := summaries[0]

	var tables []*metrics.Table
	for _, region := range []string{"A", "B"} {
		header := []string{"scheme", "metric"}
		for _, b := range fig15Budgets {
			header = append(header, pct(b))
		}
		tb := metrics.NewTable(
			fmt.Sprintf("Figure 15: normalized service time, region %s (vs unthrottled)", region),
			header...)
		for si := range engine.AllSchemes() {
			rows := map[string][]string{"mean": nil, "p90": nil, "p95": nil, "p99": nil}
			for bi := range fig15Budgets {
				sum := summaries[1+si*len(fig15Budgets)+bi]
				n := sum[region].NormalizeTo(base[region].Mean)
				bn := base[region].NormalizeTo(base[region].Mean)
				rows["mean"] = append(rows["mean"], fmt.Sprintf("%.2f", n.Mean/orOne(bn.Mean)))
				rows["p90"] = append(rows["p90"], fmt.Sprintf("%.2f", n.P90/orOne(bn.P90)))
				rows["p95"] = append(rows["p95"], fmt.Sprintf("%.2f", n.P95/orOne(bn.P95)))
				rows["p99"] = append(rows["p99"], fmt.Sprintf("%.2f", n.P99/orOne(bn.P99)))
			}
			for _, metric := range []string{"mean", "p90", "p95", "p99"} {
				cells := append([]string{string(engine.AllSchemes()[si]), metric}, rows[metric]...)
				tb.Row(cells...)
			}
		}
		tables = append(tables, tb)
	}
	return tables
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// Figure16 reproduces the per-microservice impact study: the distribution
// of individual invocation latencies for ticketinfo (high criticality),
// station and train (low criticality) under the four schemes at an 80%
// budget.
func Figure16(seed uint64) []*metrics.Table {
	services := []string{"ticketinfo", "station", "train"}
	type dist struct {
		scheme string
		stats  *metrics.LatencyStats
	}
	// One run per scheme, fanned out; span extraction stays inside the
	// worker since it only touches that run's collector.
	perScheme := parMap(engine.AllSchemes(), func(scheme engine.SchemeName) map[string]dist {
		res := compareRun("fig16", seed, scheme, 0.8, true)
		out := make(map[string]dist, len(services))
		for _, svc := range services {
			var lat []time.Duration
			for _, tr := range res.Collector.Traces() {
				if tr.Finish < res.WarmupEnd {
					continue
				}
				for _, sp := range tr.Spans {
					if sp.Service == svc {
						lat = append(lat, sp.Latency())
					}
				}
			}
			out[svc] = dist{string(scheme), metrics.FromSamples(lat)}
		}
		return out
	})
	byService := map[string][]dist{}
	for _, schemeDists := range perScheme {
		for _, svc := range services {
			byService[svc] = append(byService[svc], schemeDists[svc])
		}
	}
	var tables []*metrics.Table
	for _, svc := range services {
		tb := metrics.NewTable(
			fmt.Sprintf("Figure 16: per-invocation response time of %s at 80%% budget", svc),
			"scheme", "n", "p25", "median", "p75", "p95", "mean")
		for _, d := range byService[svc] {
			tb.Rowf(d.scheme, d.stats.Count(),
				d.stats.Percentile(0.25), d.stats.Percentile(0.50),
				d.stats.Percentile(0.75), d.stats.Percentile(0.95), d.stats.Mean())
		}
		tables = append(tables, tb)
	}
	return tables
}

// Headline computes the paper's summary claims: dynamic-power reduction
// with slight performance loss, and the mean / 90th-percentile
// improvements of ServiceFridge over the existing schemes at the tightest
// budget (75%).
func Headline(seed uint64) []*metrics.Table {
	others := []engine.SchemeName{engine.PFirst, engine.TFirst, engine.Capping}
	type job struct {
		scheme engine.SchemeName
		budget float64
	}
	jobs := []job{{engine.Baseline, 1.0}, {engine.ServiceFridge, 0.75}}
	for _, s := range others {
		jobs = append(jobs, job{s, 0.75})
	}
	results := parMap(jobs, func(j job) *engine.Result {
		return compareRun("headline", seed, j.scheme, j.budget, false)
	})
	base, fridgeRes := results[0], results[1]

	var meanSum, p90Sum float64
	for _, region := range []string{"A", "B"} {
		fs := fridgeRes.Summary(region)
		var omean, op90 time.Duration
		for _, res := range results[2:] {
			sum := res.Summary(region)
			omean += sum.Mean
			op90 += sum.P90
		}
		omean /= time.Duration(len(others))
		op90 /= time.Duration(len(others))
		meanSum += 1 - float64(fs.Mean)/float64(omean)
		p90Sum += 1 - float64(fs.P90)/float64(op90)
	}

	tb := metrics.NewTable("Headline results (75% budget)", "claim", "paper", "measured")
	tb.Row("dynamic power reduction vs no capping",
		"25%",
		pct(1-float64(fridgeRes.Meter.MeanDynamic())/float64(base.Meter.MeanDynamic())))
	tb.Row("mean response time vs existing schemes (A/B avg)",
		"25.2% better",
		pct(meanSum/2)+" better")
	tb.Row("p90 tail latency vs existing schemes (A/B avg)",
		"18.0% better",
		pct(p90Sum/2)+" better")
	return []*metrics.Table{tb}
}
