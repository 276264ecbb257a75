package telemetry

import (
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// sloSeries is the monitor's per-series state machine: consecutive
// over/under counters implement the trip/clear hysteresis, and the
// first-violation fields feed the ext-slo report.
type sloSeries struct {
	name            string
	watched         time.Duration // scratch: this tick's watched quantile
	over, under     int
	active          bool
	firstAt         sim.Time // -1 until the first violation trips
	headroomAtFirst float64
	hasHeadroom     bool
	evalTicks       int
	violationTicks  int
	// emptyTicks counts consecutive empty-window ticks while active;
	// reaching ClearTicks decays the violation (see evalSLO).
	emptyTicks int
}

func newSLOSeries(name string) sloSeries {
	return sloSeries{name: name, firstAt: -1}
}

// sloWatch stashes series i's watched quantile for this tick's
// evaluation (the value is computed inside the fused window walk).
func (t *Telemetry) sloWatch(i int, v time.Duration) { t.slo[i].watched = v }

// seriesCount returns series i's window population from the row being
// filled (index 0 is the all-regions aggregate).
func seriesCount(row *Sample, i int) uint64 {
	if i == 0 {
		return row.All.Count
	}
	return row.Regions[i-1].Count
}

// evalSLO advances every series' hysteresis state machine and the budget
// headroom alarm for one sampling tick. Alert events go to the
// telemetry-owned recorder, never to the run's controller event stream.
func (t *Telemetry) evalSLO(now sim.Time, row *Sample) {
	o := &t.opt.SLO
	if now < sim.Time(o.Grace) {
		return
	}
	target := o.Target
	q := quantileLabel(o.Quantile)
	for i := range t.slo {
		s := &t.slo[i]
		if seriesCount(row, i) == 0 {
			// An empty window is no evidence either way: counters hold
			// (no evalTicks, no violationTicks). But an ACTIVE violation
			// decays after ClearTicks consecutive empty windows — traffic
			// that stopped entirely cannot evidence an ongoing violation,
			// so the monitor fails toward "recovered" instead of latching
			// Active=true over a window population of zero.
			if s.active {
				s.emptyTicks++
				if s.emptyTicks >= o.ClearTicks {
					s.active = false
					s.over, s.under = 0, 0
					t.active--
					t.alerts.Emit(now, obs.Record{
						Kind: obs.QoSRecovered, Svc: int32(i), Quantile: q,
						Value: 0, Bound: durMs(target),
					})
				}
			}
			continue
		}
		s.emptyTicks = 0
		s.evalTicks++
		if s.watched > target {
			s.over++
			s.under = 0
		} else {
			s.under++
			s.over = 0
		}
		if !s.active && s.over >= o.TripTicks {
			s.active = true
			t.active++
			t.violations++
			if s.firstAt < 0 {
				s.firstAt = now
				if row.HasCluster {
					s.headroomAtFirst = row.HeadroomW
					s.hasHeadroom = true
				}
			}
			t.alerts.Emit(now, obs.Record{
				Kind: obs.QoSViolation, Svc: int32(i), Quantile: q,
				Value: durMs(s.watched), Bound: durMs(target),
			})
		} else if s.active && s.under >= o.ClearTicks {
			s.active = false
			t.active--
			t.alerts.Emit(now, obs.Record{
				Kind: obs.QoSRecovered, Svc: int32(i), Quantile: q,
				Value: durMs(s.watched), Bound: durMs(target),
			})
		}
		if s.active {
			s.violationTicks++
		}
	}

	// Budget headroom alarm: fires once on crossing under the warning
	// fraction, re-arms after recovering past twice the fraction. The
	// re-arm threshold is clamped to the budget itself: headroom can never
	// exceed BudgetW (draw is non-negative), so with HeadroomFrac >= 0.5
	// an unclamped 2*warn would be unreachable and the alarm would fire
	// once and stay dead for the rest of the run.
	if row.HasCluster && row.BudgetW > 0 {
		warn := o.HeadroomFrac * row.BudgetW
		rearm := 2 * warn
		if rearm > row.BudgetW {
			rearm = row.BudgetW
		}
		switch {
		case row.HeadroomW < warn && !t.headroomLow:
			t.headroomLow = true
			t.alerts.Emit(now, obs.Record{
				Kind: obs.BudgetHeadroomLow, Value: row.HeadroomW, Bound: row.BudgetW,
			})
		case row.HeadroomW >= rearm:
			t.headroomLow = false
		}
	}
}

// durMs converts a duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// SeriesSLO is one monitored series' outcome over the whole run — the
// per-scheme numbers the ext-slo experiment tabulates.
type SeriesSLO struct {
	// Series is "all" or "region:<name>".
	Series string
	// EvalTicks counts sampling ticks the series was evaluated on
	// (post-grace, non-empty window); ViolationTicks those spent in
	// violation. Their ratio is the violation duration fraction.
	EvalTicks, ViolationTicks int
	// FirstViolation is when the first violation tripped (-1 if never).
	FirstViolation sim.Time
	// HeadroomAtFirst is the budget headroom (watts) at that moment,
	// valid when HasHeadroom.
	HeadroomAtFirst float64
	HasHeadroom     bool
	// Active reports whether the series ended the run in violation.
	// Empty windows (no completed responses) hold every counter — they
	// are no evidence either way — but an active violation decays to
	// inactive after ClearTicks consecutive empty windows: a series that
	// trips and then sees traffic stop entirely ends the run inactive
	// rather than latching a violation no window population supports.
	Active bool
}

// SLOReport returns every monitored series' outcome, "all" first, then
// regions in bound order.
func (t *Telemetry) SLOReport() []SeriesSLO {
	out := make([]SeriesSLO, len(t.slo))
	for i := range t.slo {
		s := &t.slo[i]
		out[i] = SeriesSLO{
			Series:          s.name,
			EvalTicks:       s.evalTicks,
			ViolationTicks:  s.violationTicks,
			FirstViolation:  s.firstAt,
			HeadroomAtFirst: s.headroomAtFirst,
			HasHeadroom:     s.hasHeadroom,
			Active:          s.active,
		}
	}
	return out
}
