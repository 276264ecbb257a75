package experiments

import (
	"fmt"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/trace"
)

// runProfile replays n back-to-back requests of region (single closed
// client, like the paper's Python access program), optionally pinning one
// observed service to serverB at a fixed frequency (§3.1 methodology).
// Spans are retained for per-service analysis.
func runProfile(seed uint64, spec *app.Spec, region string, n int, freqB cluster.GHz, observed string) *engine.Result {
	cfg := engine.Config{
		Seed:      seed,
		Spec:      spec,
		Scheme:    engine.Baseline,
		KeepSpans: true,
		ProfLabel: "profile",
	}
	if observed != "" {
		cfg.PinTo = map[string]string{observed: "serverB"}
		cfg.FixedFreqs = map[string]cluster.GHz{"serverB": freqB}
	}
	res := engine.Build(cfg)
	count := 0
	var launch func(*trace.Trace)
	launch = func(*trace.Trace) {
		if count >= n {
			return
		}
		count++
		res.Executor.Launch(region, launch)
	}
	res.Engine.Schedule(0, func() { launch(nil) })
	for guard := 0; guard < 10000 && res.Executor.Completed() < uint64(n); guard++ {
		res.Engine.RunFor(time.Second)
	}
	return res
}

// Figure3 reproduces the execution-time distribution study: 1000 requests
// against the Advanced Search region of the full TrainTicket application,
// reporting how tightly each related microservice's execution time
// clusters (the paper's heatmap shows one dark interval per service) and
// which services run long.
func Figure3(seed uint64) []*metrics.Table {
	spec := app.TrainTicket()
	region := spec.Region("advanced-search")
	res := runProfile(seed, spec, "advanced-search", 1000, cluster.FreqMax, "")

	tb := metrics.NewTable("Figure 3: execution time per microservice (1000 trials, advanced-search)",
		"microservice", "samples", "mean (ms)", "CV", "modal interval (ms)", "frac in modal")
	for _, svc := range region.ServiceNames() {
		// One closed client runs one request at a time, so walking the
		// retained traces visits the spans in recording order.
		var xs []time.Duration
		for _, tr := range res.Collector.Traces() {
			for _, sp := range tr.Spans {
				if sp.Service == svc {
					xs = append(xs, sp.Exec())
				}
			}
		}
		if len(xs) == 0 {
			continue
		}
		stats := metrics.FromSamples(xs)
		mean := stats.Mean()
		cv := float64(stats.StdDev()) / float64(mean)
		// Interval of width ±10% around the mean, in the style of the
		// paper's x-axis labels like "(18.4,20.2]".
		lo := time.Duration(float64(mean) * 0.9)
		hi := time.Duration(float64(mean) * 1.1)
		in := 0
		for _, x := range xs {
			if x > lo && x <= hi {
				in++
			}
		}
		tb.Rowf(svc, stats.Count(), metrics.Ms(mean), cv,
			fmt.Sprintf("(%.1f,%.1f]", metrics.Ms(lo), metrics.Ms(hi)),
			float64(in)/float64(len(xs)))
	}
	return []*metrics.Table{tb}
}

// Figure5 reproduces the frequency-sensitivity CDFs for the four
// representative microservices: route (short, power-insensitive), price
// (short, power-sensitive), travel (long, ambiguous) and seat (long,
// power-sensitive). Each service is isolated on the power worker and
// profiled at the seven V/F settings.
func Figure5(seed uint64) []*metrics.Table {
	spec := app.TrainTicket()
	services := []string{"route", "price", "travel", "seat"}
	// The full service×frequency profiling grid runs on the worker pool
	// (each cell replays 60 requests on a private engine).
	type cell struct {
		svc  string
		freq cluster.GHz
	}
	var cells []cell
	for _, svc := range services {
		for _, f := range cluster.ProfilePoints() {
			cells = append(cells, cell{svc, f})
		}
	}
	stats := parMap(cells, func(c cell) *metrics.LatencyStats {
		res := runProfile(seed, app.TrainTicket(), "advanced-search", 60, c.freq, c.svc)
		var lat []time.Duration
		for _, tr := range res.Collector.Traces() {
			for _, sp := range tr.Spans {
				if sp.Service == c.svc {
					lat = append(lat, sp.Latency())
				}
			}
		}
		return metrics.FromSamples(lat)
	})

	var tables []*metrics.Table
	points := cluster.ProfilePoints()
	for si, svc := range services {
		tb := metrics.NewTable(
			fmt.Sprintf("Figure 5: response time of %s at each frequency (CPUShare=%.2f)",
				svc, spec.Service(svc).CPUShare),
			"frequency", "p10", "p25", "p50", "p75", "p90", "mean")
		for fi, f := range points {
			st := stats[si*len(points)+fi]
			tb.Rowf(ghzCol(float64(f)),
				st.Percentile(0.10), st.Percentile(0.25), st.Percentile(0.50),
				st.Percentile(0.75), st.Percentile(0.90), st.Mean())
		}
		tables = append(tables, tb)
	}
	return tables
}

// Figure6 reproduces the isolation study (§3.4): selected microservices
// run alone on the power worker at 2.4GHz and 1.8GHz while the rest of the
// application stays at full speed; the whole application's QoS is compared
// against the default swarm deployment.
func Figure6(seed uint64) []*metrics.Table {
	const workers = 10
	critical := []string{"station", "ticketinfo", "travel"}
	nonCritical := []string{"basic", "seat"}

	// Eleven independent runs (the default deployment, which does not
	// depend on the frequency, plus five isolation configurations per
	// frequency), fanned out across the pool.
	type cell struct {
		observed string
		freq     cluster.GHz
	}
	cells := []cell{{"", cluster.FreqMax}}
	freqs := []cluster.GHz{cluster.FreqMax, 1.8}
	for _, f := range freqs {
		for _, svc := range critical {
			cells = append(cells, cell{svc, f})
		}
		for _, svc := range nonCritical {
			cells = append(cells, cell{svc, f})
		}
	}
	summaries := parMap(cells, func(c cell) metrics.Summary {
		cfg := engine.Config{
			Seed:        seed,
			Scheme:      engine.Baseline,
			PoolWorkers: map[string]int{"A": workers},
			Warmup:      3 * time.Second,
			Duration:    15 * time.Second,
			ProfLabel:   "fig6",
		}
		if c.observed != "" {
			cfg.PinTo = map[string]string{c.observed: "serverB"}
			cfg.FixedFreqs = map[string]cluster.GHz{"serverB": c.freq}
		}
		return engine.Run(cfg).Summary("A")
	})

	var tables []*metrics.Table
	base := summaries[0]
	perFreq := len(critical) + len(nonCritical)
	for fi, f := range freqs {
		tb := metrics.NewTable(
			fmt.Sprintf("Figure 6: whole-application QoS, observed MS isolated at %v", f),
			"configuration", "mean", "p90", "p95", "p99")
		row := summaries[1+fi*perFreq:]
		tb.Rowf("baseline (default swarm deploy)", base.Mean, base.P90, base.P95, base.P99)
		for i, svc := range critical {
			s := row[i]
			tb.Rowf("isolate "+svc+" (critical)", s.Mean, s.P90, s.P95, s.P99)
		}
		for i, svc := range nonCritical {
			s := row[len(critical)+i]
			tb.Rowf("isolate "+svc+" (non-critical)", s.Mean, s.P90, s.P95, s.P99)
		}
		tables = append(tables, tb)
	}
	return tables
}
