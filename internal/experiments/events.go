package experiments

import (
	"fmt"
	"io"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/workload"
)

// The controller event timeline: a canonical instrumented ServiceFridge
// run whose decision stream (zone splits, migrations, promotions, DVFS
// steps, crashes) is replayed as a Figure-13-style narrative table and
// exported as JSONL via `cmd/experiments -events out.jsonl`. The run is a
// pure function of the seed and the simulator is single-threaded, so the
// stream — and its JSONL encoding — is byte-identical across executor
// widths; the CI determinism gate diffs exactly that.

// eventRun executes the canonical instrumented run: ServiceFridge at an
// 80% budget under a low→high→medium load swing, with one injected
// container crash mid-run so the failure path appears in the stream.
func eventRun(seed uint64) (*engine.Result, *obs.Recorder) {
	return canonicalRun(seed, nil, nil)
}

// canonicalRun is the shared body of the instrumented-run exports: the
// controller event stream (-events), the telemetry time series
// (-timeseries) and the run ledger (-ledger) come from the same scenario,
// so the artifacts line up instant for instant. tel and led may be nil;
// both layers are passive, so every combination exports identical bytes.
func canonicalRun(seed uint64, tel *telemetry.Telemetry, led *obs.Ledger) (*engine.Result, *obs.Recorder) {
	rec := obs.NewRecorder(0)
	res := engine.Build(engine.Config{
		Seed:           seed,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: 0.8,
		MaxRequired:    calibrated(seed),
		Mix:            workload.Ratio(1, 1),
		Phases: []workload.Phase{
			{Duration: 20 * time.Second, Workers: 5},
			{Duration: 20 * time.Second, Workers: 25},
			{Duration: 20 * time.Second, Workers: 10},
		},
		Warmup:    5 * time.Second,
		Duration:  55 * time.Second,
		Events:    rec,
		Telemetry: tel,
		Ledger:    led,
		ProfLabel: "canonical",
	})
	res.Orch.SetFailurePolicy(orchestrator.FailurePolicy{
		AutoRestart:  true,
		RestartDelay: 500 * time.Millisecond,
	})
	res.Engine.Schedule(30*time.Second, func() {
		for _, n := range res.Orch.NodesOf("config") {
			res.Orch.CrashOn("config", n.Name())
			break
		}
	})
	res.Finish()
	return res, rec
}

// ExtEvents regenerates the controller event timeline tables.
func ExtEvents(seed uint64) []*metrics.Table {
	_, rec := eventRun(seed)
	return eventTables(rec.Events())
}

// eventTables renders a record stream as the narrative tables: one row
// per instant where the controller changed something (zone sizes, zone
// frequencies, placements, criticality, failures), plus a per-kind count
// summary. Split out from ExtEvents so tests can feed synthetic streams.
func eventTables(records []obs.Record) []*metrics.Table {
	tb := metrics.NewTable("Extension: controller event timeline (decision instants)",
		"t (s)", "cold", "warm", "hot", "warm GHz", "hot GHz",
		"power", "budget", "migr", "promo", "demo", "fail")

	ghz := func(m map[string]float64, zone string) string {
		if f, ok := m[zone]; ok {
			return fmt.Sprintf("%.1f", f)
		}
		return "2.4" // never actuated: still at FreqMax
	}
	var prev *obs.TickSummary
	for _, s := range obs.Timeline(records) {
		s := s
		changed := s.Migrations+s.Promotions+s.Demotions+s.Crashes+s.Restarts+s.Scales > 0
		if prev == nil {
			changed = true
		} else {
			for _, z := range []string{"cold", "warm", "hot"} {
				if s.ZonePop[z] != prev.ZonePop[z] || s.ZoneFreq[z] != prev.ZoneFreq[z] {
					changed = true
				}
			}
		}
		// Meter-only instants (no zone data yet) stay out of the narrative.
		if changed && len(s.ZonePop) > 0 {
			tb.Row(
				fmt.Sprintf("%.1f", s.At.Seconds()),
				fmt.Sprintf("%d", s.ZonePop["cold"]),
				fmt.Sprintf("%d", s.ZonePop["warm"]),
				fmt.Sprintf("%d", s.ZonePop["hot"]),
				ghz(s.ZoneFreq, "warm"),
				ghz(s.ZoneFreq, "hot"),
				fmt.Sprintf("%.1fW", s.PowerW),
				fmt.Sprintf("%.1fW", s.BudgetW),
				fmt.Sprintf("%d", s.CumMigrations),
				fmt.Sprintf("%d", s.CumPromotions),
				fmt.Sprintf("%d", s.CumDemotions),
				fmt.Sprintf("%d", s.Crashes+s.Restarts),
			)
		}
		if len(s.ZonePop) > 0 {
			prev = &s
		}
	}

	counts := map[string]int{}
	for _, r := range records {
		counts[r.Kind.String()]++
	}
	ct := metrics.NewTable("Event counts by kind", "kind", "count")
	for _, kind := range []string{
		"zone_reassign", "migration", "promote", "demote",
		"freq_change", "power_sample", "crash", "restart", "scale",
	} {
		ct.Row(kind, fmt.Sprintf("%d", counts[kind]))
	}
	return []*metrics.Table{tb, ct}
}

// ExportEventsJSONL writes the canonical run's event stream as JSON Lines.
// Same seed, same bytes — regardless of the executor's -parallel width.
func ExportEventsJSONL(seed uint64, w io.Writer) error {
	_, rec := eventRun(seed)
	return rec.WriteJSONL(w)
}

// ExportTimeseriesCSV runs the canonical instrumented scenario with
// telemetry bound and writes the sampled time series as CSV. Like the
// event export it is a pure function of the seed: the CI determinism gate
// diffs it across -parallel widths.
func ExportTimeseriesCSV(seed uint64, w io.Writer) error {
	tel := telemetry.New(telemetry.Options{})
	canonicalRun(seed, tel, nil)
	return tel.WriteCSV(w)
}

// ExportLedgerJSONL runs the canonical instrumented scenario with a run
// ledger attached and writes the sealed chain as JSONL. A pure function
// of the seed: the CI determinism job feeds two of these (different
// -parallel widths) to cmd/simdiff, which must report them identical.
func ExportLedgerJSONL(seed uint64, w io.Writer) error {
	led := obs.NewLedger()
	canonicalRun(seed, nil, led)
	return led.WriteJSONL(w)
}
