package obs

import "servicefridge/internal/sim"

// TickSummary aggregates every event sharing one simulation-time instant
// — for a running controller, one control tick. Zone populations and
// frequencies are carried forward from the most recent ZoneReassign and
// FreqChange events, so each summary describes the full controller state
// at its instant, not just the deltas.
type TickSummary struct {
	At sim.Time
	// ZonePop maps zone name to its server count.
	ZonePop map[string]int
	// ZoneFreq maps zone name to the last actuated frequency (GHz). A
	// zone absent from the map has seen no FreqChange yet (still at the
	// initial FreqMax).
	ZoneFreq map[string]float64
	// PowerW and BudgetW are the latest cluster power sample at or before
	// this instant, in watts (0 before the first meter window closes).
	PowerW  float64
	BudgetW float64
	// Per-instant decision counts.
	Migrations, Promotions, Demotions, Crashes, Restarts, Scales int
	// Per-instant SLO-monitor alert counts.
	QoSViolations, QoSRecoveries, HeadroomAlerts int
	// SLOActive is the number of series in violation after this instant:
	// cumulative violations minus cumulative recoveries.
	SLOActive int
	// Cumulative counters across the whole stream.
	CumMigrations, CumPromotions, CumDemotions int
	// Events is the total number of records in this instant's bucket.
	Events int
}

// Timeline folds a record stream (as returned by Recorder.Events) into
// one summary per simulation-time instant, in time order. The input must
// be time-ordered, which Recorder guarantees.
func Timeline(records []Record) []TickSummary {
	var out []TickSummary
	pop := map[string]int{}
	freq := map[string]float64{}
	var powerW, budgetW float64
	var cumMig, cumPro, cumDem int
	sloActive := 0

	flush := func(s *TickSummary) {
		s.ZonePop = copyInts(pop)
		s.ZoneFreq = copyFloats(freq)
		s.PowerW = powerW
		s.BudgetW = budgetW
		s.SLOActive = sloActive
		s.CumMigrations = cumMig
		s.CumPromotions = cumPro
		s.CumDemotions = cumDem
		out = append(out, *s)
	}

	var cur *TickSummary
	for _, rec := range records {
		if cur == nil || rec.At != cur.At {
			if cur != nil {
				flush(cur)
			}
			cur = &TickSummary{At: rec.At}
		}
		cur.Events++
		switch rec.Kind {
		case ZoneReassign:
			pop[rec.Zone.String()] = rec.Members()
		case FreqChange:
			freq[rec.Zone.String()] = rec.Value
		case PowerSample:
			if rec.Zone == ZoneCluster {
				powerW = rec.Value
				budgetW = rec.Bound
			}
		case Migration:
			cur.Migrations++
			cumMig++
		case Promote:
			cur.Promotions++
			cumPro++
		case Demote:
			cur.Demotions++
			cumDem++
		case Crash:
			cur.Crashes++
		case Restart:
			cur.Restarts++
		case Scale:
			cur.Scales++
		case QoSViolation:
			cur.QoSViolations++
			sloActive++
		case QoSRecovered:
			cur.QoSRecoveries++
			sloActive--
		case BudgetHeadroomLow:
			cur.HeadroomAlerts++
		}
	}
	if cur != nil {
		flush(cur)
	}
	return out
}

func copyInts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyFloats(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
