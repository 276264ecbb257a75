package experiments

import (
	"fmt"
	"strings"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/workload"
)

// ExtScenarios runs every compared power scheme under every registered
// traffic shape — plus a trace-replay leg that round-trips the diurnal
// schedule through the CSV trace format — on both the two-region study
// and the social-network application. The trace-replay rows must equal
// the diurnal rows exactly: generators emit millisecond-aligned times
// and 1e-3-rounded rates, so the CSV round-trip loses nothing and the
// replayed run executes the identical event sequence.
func ExtScenarios(seed uint64) []*metrics.Table {
	type appCase struct {
		name  string
		build func() *app.Spec
		pool  int
	}
	apps := []appCase{
		{"study", app.TwoRegionStudy, 25},
		{"socialnet", app.SocialNetwork, 15},
	}
	const (
		warmup  = 5 * time.Second
		measure = 15 * time.Second
	)
	// Apps are independent; cells within an app fan out too. parMap
	// spawns fresh goroutines per call, so the nesting cannot deadlock.
	tables := parMap(apps, func(a appCase) *metrics.Table {
		regions := a.build().RegionNames()
		// Calibrate: offer 60% of the closed-loop throughput open-loop,
		// so the uncapped system is stable but an 80% budget visibly
		// bites, and anchor the budget to the measured peak draw.
		cal := calibratedClosedLoop(seed, a.name, a.pool)
		rates := make(map[string]float64, len(regions))
		for _, r := range regions {
			rates[r] = cal.rate(0.6, r)
		}
		maxReq := cal.peak

		in := workload.GenInput{Regions: regions, Rates: rates, Horizon: warmup + measure, Seed: seed}
		profiles := map[string]*workload.Profile{}
		for _, shape := range workload.Names() {
			reg, _ := workload.Lookup(shape)
			prof, err := reg.New(in)
			if err != nil {
				panic(err) // unreachable: calibrated inputs are positive and finite
			}
			profiles[shape] = prof
		}
		var buf strings.Builder
		if err := workload.WriteTrace(&buf, profiles["diurnal"]); err != nil {
			panic(err) // unreachable: strings.Builder cannot fail
		}
		replay, err := workload.ParseTrace(strings.NewReader(buf.String()))
		if err != nil {
			panic(err) // unreachable: WriteTrace emits the format ParseTrace reads
		}
		shapes := append(workload.Names(), "trace-replay")
		profiles["trace-replay"] = replay

		type cell struct {
			shape  string
			scheme engine.SchemeName
		}
		var cells []cell
		for _, shape := range shapes {
			for _, scheme := range engine.AllSchemes() {
				cells = append(cells, cell{shape, scheme})
			}
		}
		rows := parMap(cells, func(c cell) []any {
			res := engine.Run(engine.Config{
				Seed:           seed,
				Spec:           a.build(),
				Scheme:         c.scheme,
				BudgetFraction: 0.8,
				MaxRequired:    maxReq,
				Profile:        profiles[c.shape],
				Warmup:         warmup,
				Duration:       measure,
				ProfLabel:      "ext-scenarios",
			})
			sum := res.Summary("")
			return []any{c.shape, string(c.scheme), sum.Count, sum.Mean, sum.P95, sum.P99,
				fmt.Sprintf("%.1fW", float64(res.Meter.MeanDynamic()))}
		})
		tb := metrics.NewTable(
			fmt.Sprintf("Extension: traffic scenarios on %s at 80%% budget (open-loop, 60%% of closed-loop throughput)", a.name),
			"workload", "scheme", "count", "mean", "p95", "p99", "mean dyn power")
		for _, row := range rows {
			tb.Rowf(row...)
		}
		return tb
	})
	return tables
}
