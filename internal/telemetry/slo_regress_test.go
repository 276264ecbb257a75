package telemetry

import (
	"testing"
	"time"

	"servicefridge/internal/obs"
)

// TestBudgetHeadroomRearmHighFraction is the regression test for the
// re-arm threshold: headroom can never exceed the budget (draw is
// non-negative), so with HeadroomFrac >= 0.5 an unclamped 2*warn threshold
// is unreachable and the alarm would fire exactly once per run. The clamp
// to BudgetW keeps it re-armable.
func TestBudgetHeadroomRearmHighFraction(t *testing.T) {
	// At 0.6 the unclamped threshold (2*180 = 360 W) exceeds the 300 W
	// budget outright; at 0.5 it sits exactly on it. Both must re-arm at
	// full headroom.
	for _, frac := range []float64{0.5, 0.6} {
		h := newHarness(t, Options{SLO: SLOOptions{HeadroomFrac: frac}}, nil)
		h.ok = true
		warn := frac * h.cap

		h.power = h.cap - warn - 10 // headroom just above the warning line: no alert
		h.tick()
		if h.tel.Alerts().Len() != 0 {
			t.Fatalf("frac=%v: alert fired with headroom above warn", frac)
		}
		h.power = h.cap - warn - 1 // still above
		h.tick()
		h.power = h.cap - warn/2 // headroom drops under warn: fires
		h.tick()
		if h.tel.Alerts().Len() != 1 {
			t.Fatalf("frac=%v: got %d alerts, want 1", frac, h.tel.Alerts().Len())
		}
		if ev := h.tel.Alerts().Events()[0]; ev.Kind != obs.BudgetHeadroomLow {
			t.Fatalf("frac=%v: alert %+v", frac, ev)
		}

		// Full recovery: headroom == budget, the maximum reachable. The
		// clamped threshold re-arms here; the unclamped 2*warn would not.
		h.power = 0
		h.tick()
		h.power = h.cap - warn/2 // second crossing must fire again
		h.tick()
		if h.tel.Alerts().Len() != 2 {
			t.Fatalf("frac=%v: alarm did not re-fire after full recovery (got %d alerts)",
				frac, h.tel.Alerts().Len())
		}
	}
}

// TestSLOActiveDecaysOverEmptyWindows pins the end-of-run semantics of
// SeriesSLO.Active: an active violation whose traffic stops entirely
// (consecutive empty windows) decays to inactive after ClearTicks empty
// ticks, with a recovery event, instead of latching Active=true on zero
// window population. Counters hold over empty windows short of that.
func TestSLOActiveDecaysOverEmptyWindows(t *testing.T) {
	h := newHarness(t, Options{
		WindowTicks: 1,
		SLO: SLOOptions{
			Target:    100 * time.Millisecond,
			TripTicks: 2, ClearTicks: 2,
		},
	}, nil)
	h.ok = true

	// Trip the "all" and "region:A" series.
	for i := 0; i < 2; i++ {
		h.tel.ObserveResponse("A", 500*time.Millisecond)
		h.tick()
	}
	if got := h.tel.SLOReport()[0]; !got.Active {
		t.Fatalf("series not active after %d over ticks: %+v", 2, got)
	}
	alerts := h.tel.Alerts().Len() // the trip events

	// One empty window: evidence of nothing — still active, counters hold.
	h.tick()
	rep := h.tel.SLOReport()
	if !rep[0].Active || !rep[1].Active {
		t.Fatalf("violation decayed after a single empty window: %+v", rep[0])
	}
	evalBefore := rep[0].EvalTicks
	if h.tel.Alerts().Len() != alerts {
		t.Fatal("alert emitted on a held empty window")
	}

	// Second consecutive empty window reaches ClearTicks: decay to
	// inactive with a recovery event carrying a zero value.
	h.tick()
	rep = h.tel.SLOReport()
	if rep[0].Active || rep[1].Active {
		t.Fatalf("violation still active after ClearTicks empty windows: %+v", rep[0])
	}
	if rep[0].EvalTicks != evalBefore {
		t.Fatalf("empty windows counted as eval ticks: %d -> %d", evalBefore, rep[0].EvalTicks)
	}
	evs := h.tel.Alerts().Events()
	if len(evs) != alerts+2 { // "all" + "region:A" recoveries
		t.Fatalf("got %d alerts, want %d", len(evs), alerts+2)
	}
	if rec := evs[len(evs)-1]; rec.Kind != obs.QoSRecovered || rec.Value != 0 {
		t.Fatalf("decay event %+v, want qos_recovered with value 0", rec)
	}
	if got := h.tel.Samples()[h.tel.Len()-1].SLOActive; got != 0 {
		t.Fatalf("SLOActive gauge = %d after decay, want 0", got)
	}

	// An interleaved non-empty window resets the decay countdown: two
	// empty ticks separated by traffic must not decay a new violation.
	h.tel.ObserveResponse("A", 500*time.Millisecond)
	h.tick()
	h.tel.ObserveResponse("A", 500*time.Millisecond)
	h.tick() // re-tripped
	if !h.tel.SLOReport()[0].Active {
		t.Fatal("series did not re-trip")
	}
	h.tick() // empty #1
	h.tel.ObserveResponse("A", 500*time.Millisecond)
	h.tick() // traffic: resets emptyTicks, still over target
	h.tick() // empty #1 again
	if !h.tel.SLOReport()[0].Active {
		t.Fatal("decay countdown not reset by an intervening non-empty window")
	}
}
