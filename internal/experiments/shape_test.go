package experiments

// Integration tests that assert the paper's qualitative claims — the
// shapes the reproduction targets — hold end to end in the simulator.
// They run multi-second simulations; skip with -short.

import (
	"testing"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
)

const shapeSeed = 11

func shapeRun(t *testing.T, scheme engine.SchemeName, budget float64) *engine.Result {
	t.Helper()
	return engine.Run(engine.Config{
		Seed:           shapeSeed,
		Scheme:         scheme,
		BudgetFraction: budget,
		MaxRequired:    calibrated(shapeSeed),
		PoolWorkers:    studyPools(),
		Warmup:         5 * time.Second,
		Duration:       15 * time.Second,
	})
}

// TestShapeFridgeWinsCriticalPathAtTightBudget is the core §6.4 claim:
// at the tightest budget ServiceFridge keeps the critical region's (A)
// mean and p90 below every conventional scheme.
func TestShapeFridgeWinsCriticalPathAtTightBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	f := shapeRun(t, engine.ServiceFridge, 0.75).Summary("A")
	for _, other := range []engine.SchemeName{engine.Capping, engine.PFirst, engine.TFirst} {
		o := shapeRun(t, other, 0.75).Summary("A")
		if f.Mean >= o.Mean {
			t.Errorf("fridge mean %v not better than %s %v", f.Mean, other, o.Mean)
		}
		// p90 includes the controller's settling transient; require the
		// fridge to be no worse than 5% over any conventional scheme.
		if float64(f.P90) >= 1.05*float64(o.P90) {
			t.Errorf("fridge p90 %v materially worse than %s %v", f.P90, other, o.P90)
		}
	}
}

// TestShapeDynamicPowerReduction checks the abstract's headline: roughly a
// quarter of the dynamic power goes away under the capped fridge.
func TestShapeDynamicPowerReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	base := shapeRun(t, engine.Baseline, 1.0)
	capped := shapeRun(t, engine.ServiceFridge, 0.75)
	reduction := 1 - float64(capped.Meter.MeanDynamic())/float64(base.Meter.MeanDynamic())
	if reduction < 0.15 {
		t.Fatalf("dynamic power reduction %.1f%%, want >= 15%% (paper: 25%%)", reduction*100)
	}
	// "with slight performance loss": region A must not be worse than
	// the uncapped baseline by more than a few percent (it is actually
	// better here thanks to criticality-aware placement).
	if fa, ba := capped.Summary("A").Mean, base.Summary("A").Mean; float64(fa) > 1.15*float64(ba) {
		t.Fatalf("region A mean %v vs baseline %v: more than slight loss", fa, ba)
	}
}

// TestShapeConventionalSchemesDegradeWithBudget: Figure 15's x-axis trend
// for the topology-blind schemes.
func TestShapeConventionalSchemesDegradeWithBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	for _, scheme := range []engine.SchemeName{engine.Capping, engine.PFirst} {
		loose := shapeRun(t, scheme, 1.0).Summary("A").Mean
		tight := shapeRun(t, scheme, 0.75).Summary("A").Mean
		if tight <= loose {
			t.Errorf("%s: tight budget (%v) not slower than loose (%v)", scheme, tight, loose)
		}
	}
}

// TestShapeMisEstimationHurts: Figure 14(a) — managing a pure-A workload
// with MCF computed for a pure-B mix degrades region A.
func TestShapeMisEstimationHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	run := func(override map[string]float64) metrics.Summary {
		res := engine.Build(engine.Config{
			Seed:           shapeSeed,
			Scheme:         engine.ServiceFridge,
			BudgetFraction: 0.85,
			MaxRequired:    calibrated(shapeSeed),
			PoolWorkers:    map[string]int{"A": 50},
			Warmup:         5 * time.Second,
			Duration:       15 * time.Second,
		})
		res.Fridge.LoadOverride = override
		res.Finish()
		return res.Summary("A")
	}
	good := run(nil)
	bad := run(map[string]float64{"B": 30})
	if bad.Mean <= good.Mean {
		t.Fatalf("mis-computed MCF did not hurt: %v vs %v", bad.Mean, good.Mean)
	}
}

// TestShapeSensitivityOrdering: Figure 5 — the frequency sensitivity of
// price and seat exceeds route's by a wide margin, measured end to end.
func TestShapeSensitivityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	inflation := func(svc string) float64 {
		mean := func(f cluster.GHz) time.Duration {
			res := runProfile(uint64(shapeSeed), app.TrainTicket(), "advanced-search", 40, f, svc)
			var lat []time.Duration
			for _, tr := range res.Collector.Traces() {
				for _, sp := range tr.Spans {
					if sp.Service == svc {
						lat = append(lat, sp.Latency())
					}
				}
			}
			return metrics.FromSamples(lat).Mean()
		}
		return float64(mean(cluster.FreqMin)) / float64(mean(cluster.FreqMax))
	}
	route := inflation("route")
	price := inflation("price")
	seat := inflation("seat")
	if route > 1.3 {
		t.Errorf("route inflation %.2f, should be nearly flat", route)
	}
	if price < route+0.3 || seat < route+0.3 {
		t.Errorf("sensitive services should inflate far more: route %.2f price %.2f seat %.2f",
			route, price, seat)
	}
}

// TestShapeIsolationAsymmetry: Figure 6 — throttling an isolated critical
// service degrades whole-app QoS; throttling a non-critical one does not.
func TestShapeIsolationAsymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	run := func(observed string, f cluster.GHz) time.Duration {
		cfg := engine.Config{
			Seed:        shapeSeed,
			Scheme:      engine.Baseline,
			PoolWorkers: map[string]int{"A": 10},
			Warmup:      3 * time.Second,
			Duration:    10 * time.Second,
		}
		if observed != "" {
			cfg.PinTo = map[string]string{observed: "serverB"}
			cfg.FixedFreqs = map[string]cluster.GHz{"serverB": f}
		}
		return engine.Run(cfg).Summary("A").Mean
	}
	tiFast := run("ticketinfo", cluster.FreqMax)
	tiSlow := run("ticketinfo", 1.8)
	basicFast := run("basic", cluster.FreqMax)
	basicSlow := run("basic", 1.8)
	criticalHit := float64(tiSlow) / float64(tiFast)
	nonCriticalHit := float64(basicSlow) / float64(basicFast)
	if criticalHit < 1.05 {
		t.Errorf("throttling critical ticketinfo barely hurt: %.3f", criticalHit)
	}
	if nonCriticalHit > criticalHit {
		t.Errorf("non-critical hit (%.3f) exceeds critical hit (%.3f)", nonCriticalHit, criticalHit)
	}
}

// TestShapeFigure12FrequencyPattern: critical services hold FreqMax while
// non-critical ones are throttled under an A-heavy mix at 80% budget.
func TestShapeFigure12FrequencyPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := engine.Run(engine.Config{
		Seed:           shapeSeed,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: 0.8,
		MaxRequired:    calibrated(shapeSeed),
		PoolWorkers:    map[string]int{"A": 50},
		Warmup:         5 * time.Second,
		Duration:       15 * time.Second,
		TrackFreqOf:    []string{"ticketinfo", "station", "route", "config", "train"},
	})
	minFreq := func(svc string) cluster.GHz {
		series := res.FreqSeries[svc]
		if len(series) == 0 {
			t.Fatalf("%s has no frequency series", svc)
		}
		m := cluster.FreqMax
		for _, p := range series {
			if p.Freq < m {
				m = p.Freq
			}
		}
		return m
	}
	// Critical path: ticketinfo must never have been throttled.
	if f := minFreq("ticketinfo"); f != cluster.FreqMax {
		t.Errorf("critical ticketinfo dipped to %v, want FreqMax throughout", f)
	}
	throttled := 0
	for _, svc := range []string{"station", "route", "config", "train"} {
		if minFreq(svc) < cluster.FreqMax {
			throttled++
		}
	}
	if throttled == 0 {
		t.Error("no non-critical service throttled at 80% budget")
	}
}
