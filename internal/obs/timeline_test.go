package obs

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// Server indices in timelineNames.
const m, b, c, d = 0, 1, 2, 3

var timelineNames = Names{
	Servers:  []string{"m", "b", "c", "d"},
	Services: []string{"route", "config", "seat"},
	Series:   []string{"all"},
}

func TestTimelineBucketsAndCarriesState(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }
	r := NewRecorder(0)
	r.Bind(timelineNames)
	// Tick 1: full zone snapshot, a DVFS step, a meter window.
	r.Emit(sec(1), Record{Kind: PowerSample, Zone: ZoneCluster, Value: 300, Bound: 350})
	r.EmitZone(sec(1), ZoneCold, []int32{m, b}, Cause{})
	r.EmitZone(sec(1), ZoneWarm, []int32{c}, Cause{})
	r.EmitZone(sec(1), ZoneHot, []int32{d}, Cause{})
	r.Emit(sec(1), Record{Kind: FreqChange, Server: d, Zone: ZoneHot, Value: 1.8})
	// Tick 2: decisions only — zone state must carry forward.
	r.Emit(sec(2), Record{Kind: Migration, Svc: 0, From: c, To: b, Zone: ZoneCold})
	r.Emit(sec(2), Record{Kind: Promote, Svc: 0, Level: 2, Reason: WarmUtilHigh})
	r.Emit(sec(2), Record{Kind: Demote, Svc: 1, Level: 0, Reason: PowerShortage})
	// Off-tick failure instant.
	r.Emit(sec(2.5), Record{Kind: Crash, Svc: 1, Server: d})
	r.Emit(sec(2.5), Record{Kind: Restart, Svc: 1, Server: d})
	r.Emit(sec(2.5), Record{Kind: Scale, Svc: 2, From: 1, To: 2})

	tl := Timeline(r.Events())
	if len(tl) != 3 {
		t.Fatalf("got %d buckets, want 3", len(tl))
	}

	t1 := tl[0]
	if t1.At != sec(1) || t1.Events != 5 {
		t.Fatalf("bucket 1 = at %v, %d events", t1.At, t1.Events)
	}
	if t1.ZonePop["cold"] != 2 || t1.ZonePop["warm"] != 1 || t1.ZonePop["hot"] != 1 {
		t.Fatalf("bucket 1 zone pops %v", t1.ZonePop)
	}
	if t1.ZoneFreq["hot"] != 1.8 {
		t.Fatalf("bucket 1 hot freq %v", t1.ZoneFreq)
	}
	if t1.PowerW != 300 || t1.BudgetW != 350 {
		t.Fatalf("bucket 1 power %v/%v", t1.PowerW, t1.BudgetW)
	}

	t2 := tl[1]
	if t2.ZonePop["cold"] != 2 || t2.ZoneFreq["hot"] != 1.8 || t2.PowerW != 300 {
		t.Fatal("bucket 2 did not carry forward zone/power state")
	}
	if t2.Migrations != 1 || t2.Promotions != 1 || t2.Demotions != 1 {
		t.Fatalf("bucket 2 decisions %+v", t2)
	}
	if t2.CumMigrations != 1 || t2.CumPromotions != 1 || t2.CumDemotions != 1 {
		t.Fatalf("bucket 2 cumulative counters %+v", t2)
	}

	t3 := tl[2]
	if t3.At != sec(2.5) || t3.Crashes != 1 || t3.Restarts != 1 || t3.Scales != 1 {
		t.Fatalf("bucket 3 = %+v", t3)
	}
	if t3.CumMigrations != 1 {
		t.Fatal("cumulative migration count must persist into later buckets")
	}
	// Summaries own their maps: mutating one must not leak into another.
	t3.ZonePop["cold"] = 99
	if tl[1].ZonePop["cold"] == 99 {
		t.Fatal("buckets share zone-pop maps")
	}
}

// TestTimelineOverWrappedRecorder folds a stream whose oldest instants
// were overwritten by ring wraparound: the timeline must start at the
// first *retained* instant, count only retained events, and keep
// cumulative counters consistent with what survived (the recorder cannot
// resurrect dropped decisions).
func TestTimelineOverWrappedRecorder(t *testing.T) {
	sec := func(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }
	r := NewRecorder(6)
	r.Bind(timelineNames)
	// Ticks 1-2 will be fully overwritten; tick 2's snapshot is lost too,
	// so carried-forward state must come from retained records only.
	r.EmitZone(sec(1), ZoneHot, []int32{m, b}, Cause{})
	r.Emit(sec(1), Record{Kind: Migration, Svc: 0, From: m, To: b, Zone: ZoneHot})
	r.Emit(sec(2), Record{Kind: Migration, Svc: 2, From: b, To: m, Zone: ZoneHot})
	r.Emit(sec(2), Record{Kind: Promote, Svc: 2, Level: 2, Reason: WarmUtilHigh})
	// Retained window: ticks 3-5.
	r.EmitZone(sec(3), ZoneHot, []int32{c}, Cause{})
	r.Emit(sec(3), Record{Kind: PowerSample, Zone: ZoneCluster, Value: 280, Bound: 300})
	r.Emit(sec(4), Record{Kind: Migration, Svc: 1, From: c, To: d, Zone: ZoneHot})
	r.Emit(sec(4), Record{Kind: QoSViolation, Svc: 0, Quantile: P95, Value: 140, Bound: 100})
	r.Emit(sec(5), Record{Kind: QoSRecovered, Svc: 0, Quantile: P95, Value: 90, Bound: 100})
	r.Emit(sec(5), Record{Kind: BudgetHeadroomLow, Value: 5, Bound: 300})
	if r.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", r.Dropped())
	}

	tl := Timeline(r.Events())
	if len(tl) != 3 {
		t.Fatalf("got %d buckets, want 3 (retained instants only)", len(tl))
	}
	t3 := tl[0]
	if t3.At != sec(3) || t3.Events != 2 {
		t.Fatalf("first retained bucket = at %v, %d events", t3.At, t3.Events)
	}
	if t3.ZonePop["hot"] != 1 || t3.PowerW != 280 {
		t.Fatalf("bucket 3 state %v / %v: must reflect retained records only", t3.ZonePop, t3.PowerW)
	}
	t4 := tl[1]
	// Dropped migrations from ticks 1-2 must not inflate the cumulative
	// counter over the retained stream.
	if t4.Migrations != 1 || t4.CumMigrations != 1 {
		t.Fatalf("bucket 4 migrations %d cum %d, want 1/1", t4.Migrations, t4.CumMigrations)
	}
	if t4.QoSViolations != 1 || t4.SLOActive != 1 {
		t.Fatalf("bucket 4 QoS %d active %d, want 1/1", t4.QoSViolations, t4.SLOActive)
	}
	t5 := tl[2]
	if t5.QoSRecoveries != 1 || t5.SLOActive != 0 || t5.HeadroomAlerts != 1 {
		t.Fatalf("bucket 5 = %+v: recovery must clear the active SLO count", t5)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if tl := Timeline(nil); tl != nil {
		t.Fatalf("Timeline(nil) = %v, want nil", tl)
	}
}
