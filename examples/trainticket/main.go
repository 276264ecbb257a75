// Trainticket: drive the full 42-microservice TrainTicket application —
// six API regions, 24 business-logic services — under ServiceFridge at an
// 80% budget, with a failure injected mid-run to show graceful
// degradation, and print per-region QoS plus the criticality map.
//
//	go run ./examples/trainticket
package main

import (
	"fmt"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/core"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/workload"
)

func main() {
	spec := app.TrainTicket()
	fmt.Printf("TrainTicket: %d services (%d business logic), regions %v\n\n",
		spec.NumServices(), len(spec.FunctionServices()), spec.RegionNames())

	// Traffic mix across all six portals, search-heavy like a real
	// ticketing site.
	mix := workload.NewMix(spec.RegionNames(), map[string]float64{
		"advanced-search": 10,
		"order":           5,
		"travel-plan":     3,
		"food":            2,
		"assurance":       1,
		"contact":         1,
	})

	cfg := engine.Config{
		Seed:           3,
		Spec:           spec,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: 0.8,
		Workers:        40,
		Mix:            mix,
		Warmup:         5 * time.Second,
		Duration:       25 * time.Second,
	}
	res := engine.Build(cfg)
	// The classifier threshold is calibrated per deployment: the full
	// graph spreads indegree over six regions, so the cut sits lower than
	// the two-region study default.
	res.Fridge.Classifier().Threshold = 0.12

	// Resilience: crash the order container at t=15s; swarm restarts it.
	res.Orch.SetFailurePolicy(orchestrator.FailurePolicy{
		AutoRestart:  true,
		RestartDelay: time.Second,
	})
	res.Engine.Schedule(15*time.Second, func() {
		for _, n := range res.Orch.NodesOf("order") {
			if res.Orch.CrashOn("order", n.Name()) {
				fmt.Printf("t=15s: crashed the order container on %s (auto-restart in 1s)\n\n", n.Name())
			}
			break
		}
	})

	res.Engine.RunFor(30 * time.Second)
	res.Gen.Stop()

	tb := metrics.NewTable("Per-region QoS (post-warmup)", "region", "requests", "mean", "p90", "p99")
	for _, region := range spec.RegionNames() {
		s := res.Summary(region)
		if s.Count == 0 {
			continue
		}
		tb.Rowf(region, s.Count, s.Mean, s.P90, s.P99)
	}
	fmt.Println(tb)

	low, unc, high := core.Levels(res.Fridge.Levels())
	fmt.Printf("criticality: %d high %v\n             %d uncertain %v\n             %d low %v\n",
		len(high), high, len(unc), unc, len(low), low)
	fmt.Printf("\npower: mean dynamic %v (cap %v), migrations %d, crashes %d, restarts ok\n",
		res.Meter.MeanDynamic(), res.Budget.Cap(), res.Orch.Migrations(), res.Orch.Crashes())
	if res.Orch.Replicas("order") == 0 {
		fmt.Println("warning: order service did not recover")
	}
}
