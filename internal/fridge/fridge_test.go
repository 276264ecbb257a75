package fridge

import (
	"testing"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/power"
	"servicefridge/internal/schemes"
	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
)

// harness builds a fridge over the default testbed with the study app
// deployed round-robin.
func harness(t *testing.T, fraction float64) (*sim.Engine, *Fridge, *schemes.Context) {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.DefaultTestbed(eng)
	orch := orchestrator.New(cl)
	orch.StartupDelay = 0
	spec := app.TwoRegionStudy()
	orch.DeployRoundRobin(spec.PlacedServices())
	model := power.DefaultModel()
	meter := power.NewMeter(cl, model, 100*time.Millisecond)
	meter.Start()
	budget := power.NewBudget(model, cl.Size(), fraction)
	ctx := &schemes.Context{Cluster: cl, Meter: meter, Budget: &budget, Orch: orch}
	return eng, New(ctx, spec), ctx
}

// feed pushes n pseudo-requests per region into the counters.
func feed(f *Fridge, nA, nB int) {
	for i := 0; i < nA; i++ {
		f.Counter().Observe("A")
	}
	for i := 0; i < nB; i++ {
		f.Counter().Observe("B")
	}
}

func TestZonesPartitionAllServers(t *testing.T) {
	eng, f, ctx := harness(t, 0.8)
	feed(f, 30, 20)
	eng.RunFor(time.Second)
	f.Tick()
	seen := map[string]Zone{}
	total := 0
	for _, z := range []Zone{Hot, Warm, Cold} {
		for _, s := range f.ZoneServers(z) {
			if prev, dup := seen[s.Name()]; dup {
				t.Fatalf("%s in both %v and %v", s.Name(), prev, z)
			}
			seen[s.Name()] = z
			total++
		}
	}
	if total != ctx.Cluster.Size() {
		t.Fatalf("zones cover %d servers, want %d", total, ctx.Cluster.Size())
	}
	if seen["serverA"] != Cold {
		t.Fatal("manager must be in the cold zone")
	}
}

func TestColdZoneNeverCapped(t *testing.T) {
	eng, f, _ := harness(t, 0.5) // drastic budget
	feed(f, 30, 20)
	eng.RunFor(time.Second)
	for i := 0; i < 5; i++ {
		f.Tick()
		eng.RunFor(time.Second)
	}
	if f.ZoneFreq(Cold) != cluster.FreqMax {
		t.Fatalf("cold zone at %v, must stay at FreqMax", f.ZoneFreq(Cold))
	}
	for _, s := range f.ZoneServers(Cold) {
		if s.Freq() != cluster.FreqMax {
			t.Fatalf("cold server %s throttled to %v", s.Name(), s.Freq())
		}
	}
}

func TestHotThrottlesBeforeWarm(t *testing.T) {
	eng, f, _ := harness(t, 0.7)
	feed(f, 30, 20)
	eng.RunFor(time.Second)
	f.Tick()
	if f.ZoneFreq(Hot) > f.ZoneFreq(Warm) {
		t.Fatalf("hot zone (%v) must not run faster than warm (%v)",
			f.ZoneFreq(Hot), f.ZoneFreq(Warm))
	}
}

func TestHighCriticalityServicesLandInColdZone(t *testing.T) {
	eng, f, ctx := harness(t, 0.8)
	feed(f, 30, 0)
	eng.RunFor(time.Second)
	f.Tick()
	eng.RunFor(time.Second) // allow migrations to activate
	levels := f.Levels()
	cold := map[string]bool{}
	for _, s := range f.ZoneServers(Cold) {
		cold[s.Name()] = true
	}
	for svc, lvl := range levels {
		if lvl != core.High {
			continue
		}
		nodes := ctx.Orch.NodesOf(svc)
		if len(nodes) == 0 {
			t.Fatalf("high service %s has no active instance", svc)
		}
		for _, n := range nodes {
			if !cold[n.Name()] {
				t.Fatalf("high-criticality %s hosted on non-cold %s", svc, n.Name())
			}
		}
	}
}

func TestLowCriticalityServicesLeaveColdZone(t *testing.T) {
	eng, f, ctx := harness(t, 0.8)
	feed(f, 30, 0)
	eng.RunFor(time.Second)
	f.Tick()
	eng.RunFor(time.Second)
	f.Tick() // second tick finalizes placement after activation
	eng.RunFor(time.Second)
	hotOrWarm := map[string]bool{}
	for _, z := range []Zone{Hot, Warm} {
		for _, s := range f.ZoneServers(z) {
			hotOrWarm[s.Name()] = true
		}
	}
	for svc, lvl := range f.Levels() {
		if lvl != core.Low {
			continue
		}
		for _, n := range ctx.Orch.NodesOf(svc) {
			if !hotOrWarm[n.Name()] {
				t.Fatalf("low-criticality %s still on %s (not hot/warm)", svc, n.Name())
			}
		}
	}
}

func TestNoTrafficKeepsFullSpeed(t *testing.T) {
	eng, f, ctx := harness(t, 0.6)
	ctx.Cluster.SetAllFreq(1.2)
	eng.RunFor(time.Second)
	f.Tick()
	for _, s := range ctx.Cluster.Servers() {
		if s.Freq() != cluster.FreqMax {
			t.Fatalf("idle cluster should run at FreqMax, %s at %v", s.Name(), s.Freq())
		}
	}
}

func TestLoadOverrideDrivesClassification(t *testing.T) {
	eng, f, _ := harness(t, 0.8)
	// Live traffic is pure A, but the override claims pure B.
	feed(f, 30, 0)
	f.LoadOverride = map[string]float64{"B": 30}
	eng.RunFor(time.Second)
	f.Tick()
	for svc, lvl := range f.Levels() {
		if lvl == core.High {
			t.Fatalf("override to pure-B should leave no high services, %s is high", svc)
		}
	}
}

func TestWrapLauncherFeedsCounters(t *testing.T) {
	eng, f, _ := harness(t, 1.0)
	inner := launcherFunc(func(region string, onDone func(*trace.Trace)) {
		eng.Schedule(10*time.Millisecond, func() { onDone(&trace.Trace{Region: region}) })
	})
	wrapped := f.WrapLauncher(inner)
	wrapped.Launch("A", nil)
	wrapped.Launch("B", nil)
	if f.Counter().Pending("ticketinfo") != 2 {
		t.Fatalf("pending = %v, want 2", f.Counter().Pending("ticketinfo"))
	}
	eng.RunFor(time.Second)
	if f.Counter().Pending("ticketinfo") != 0 {
		t.Fatalf("pending after completion = %v, want 0", f.Counter().Pending("ticketinfo"))
	}
}

func TestWrapLauncherPreservesCallerCallback(t *testing.T) {
	eng, f, _ := harness(t, 1.0)
	inner := launcherFunc(func(region string, onDone func(*trace.Trace)) {
		eng.Schedule(time.Millisecond, func() { onDone(&trace.Trace{Region: region}) })
	})
	done := false
	f.WrapLauncher(inner).Launch("A", func(tr *trace.Trace) {
		if tr.Region != "A" {
			t.Fatalf("region %q", tr.Region)
		}
		done = true
	})
	eng.RunFor(time.Second)
	if !done {
		t.Fatal("caller callback lost")
	}
}

// TestWrapLauncherRelaysSurviveRestore: a request in flight at a snapshot
// keeps its caller's callback across a restore, even after its pooled
// relay completed and was reused by another caller in the meantime, and a
// relay the restored request still holds is never handed out again.
func TestWrapLauncherRelaysSurviveRestore(t *testing.T) {
	_, f, _ := harness(t, 1.0)
	var pending []func(*trace.Trace)
	inner := launcherFunc(func(region string, onDone func(*trace.Trace)) { pending = append(pending, onDone) })
	wrapped := f.WrapLauncher(inner)
	calls := map[string]int{}
	callback := func(name string) func(*trace.Trace) {
		return func(*trace.Trace) { calls[name]++ }
	}

	wrapped.Launch("A", callback("first"))
	held := pending[0] // what the executor's in-flight request holds
	snap := f.Snapshot()
	held(&trace.Trace{Region: "A"})
	wrapped.Launch("B", callback("detour")) // reuses the freed relay
	pending[1](&trace.Trace{Region: "B"})   // and frees it again
	f.Restore(snap)

	wrapped.Launch("B", callback("after"))
	held(&trace.Trace{Region: "A"})
	pending[len(pending)-1](&trace.Trace{Region: "B"})
	if calls["first"] != 2 || calls["detour"] != 1 || calls["after"] != 1 {
		t.Fatalf("callbacks = %v, want first=2 detour=1 after=1", calls)
	}
	if got := f.Counter().Total(); got != 0 {
		t.Fatalf("indegree total = %v after every request completed, want 0", got)
	}
}

func TestDemoteForPowerShrinksColdZone(t *testing.T) {
	eng, f, ctx := harness(t, 0.55) // impossible budget: must demote
	// Saturate every server so even full throttling of hot+warm cannot
	// meet the cap while the cold zone runs at FreqMax.
	for _, s := range ctx.Cluster.Servers() {
		srv := s
		var loop func()
		loop = func() {
			srv.Submit(&cluster.Job{Tag: "load", Demand: 50 * time.Millisecond, OnDone: loop})
		}
		for c := 0; c < srv.Cores()+2; c++ {
			loop()
		}
	}
	feed(f, 30, 0)
	eng.RunFor(time.Second)
	f.Tick()
	before := len(f.ZoneServers(Cold))
	for i := 0; i < 10; i++ {
		f.Tick()
		eng.RunFor(time.Second)
		feed(f, 30, 0) // sustain load
	}
	if f.Demotions() == 0 {
		t.Fatal("over-budget fridge performed no demotions")
	}
	after := len(f.ZoneServers(Cold))
	if after > before {
		t.Fatalf("cold zone grew under power shortage: %d -> %d", before, after)
	}
}

func TestPromotionAdjustmentExpiresWhenBaseChanges(t *testing.T) {
	eng, f, _ := harness(t, 1.0)
	feed(f, 30, 0)
	eng.RunFor(time.Second)
	f.Tick()
	// Manually promote a low service.
	f.bump(f.spec.Service("route").ID(), +1, obs.WarmUtilHigh, obs.Cause{})
	feed(f, 30, 0)
	f.Tick()
	if f.Levels()["route"] != core.Uncertain {
		t.Fatalf("route after promotion = %v, want uncertain", f.Levels()["route"])
	}
	// Swing the workload so route's base classification changes (pure B:
	// everything low) — the stale adjustment must expire.
	f.LoadOverride = map[string]float64{"B": 30}
	f.Tick()
	f.LoadOverride = nil
	feed(f, 30, 0)
	f.Tick()
	if f.Levels()["route"] != core.Low {
		t.Fatalf("route = %v after base change, want low (adjustment expired)", f.Levels()["route"])
	}
}

func TestTickIsDeterministic(t *testing.T) {
	run := func() []string {
		eng, f, ctx := harness(t, 0.75)
		feed(f, 30, 20)
		eng.RunFor(time.Second)
		for i := 0; i < 3; i++ {
			f.Tick()
			eng.RunFor(time.Second)
			feed(f, 30, 20)
		}
		var out []string
		for _, svc := range app.StudyServiceNames() {
			for _, n := range ctx.Orch.NodesOf(svc) {
				out = append(out, svc+"@"+n.Name()+"@"+n.Freq().String())
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("placement lists differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestZoneStringAndName(t *testing.T) {
	if Hot.String() != "hot" || Warm.String() != "warm" || Cold.String() != "cold" {
		t.Fatal("zone strings wrong")
	}
	_, f, _ := harness(t, 1.0)
	if f.Name() != "ServiceFridge" {
		t.Fatal("name wrong")
	}
}

type launcherFunc func(region string, onDone func(*trace.Trace))

func (fn launcherFunc) Launch(region string, onDone func(*trace.Trace)) { fn(region, onDone) }

// TestFridgeTickZeroAllocs: once placements and Algorithm 1 adjustments
// settle under steady load, a control tick without an event recorder
// allocates nothing — MCF, classification, zoning, placement queries,
// Algorithm 1 and frequency planning all run on reused scratch.
func TestFridgeTickZeroAllocs(t *testing.T) {
	for _, recorded := range []bool{false, true} {
		eng, f, ctx := harness(t, 0.8)
		if recorded {
			// A small ring, so the timed ticks overwrite records and
			// reclaim zone members instead of growing.
			ctx.Rec = obs.NewRecorder(64)
			var servers []string
			for _, s := range ctx.Cluster.Servers() {
				servers = append(servers, s.Name())
			}
			ctx.Rec.Bind(obs.Names{Servers: servers, Services: f.spec.ServiceNames()})
			ctx.Rec.SetLedger(obs.NewLedger())
		}
		feed(f, 30, 20)
		eng.RunFor(time.Second)
		for i := 0; i < 40; i++ {
			f.Tick()
		}
		migrations := ctx.Orch.Migrations()
		allocs := testing.AllocsPerRun(100, f.Tick)
		if allocs != 0 {
			t.Fatalf("recorded=%v: Tick allocated %.3f objects/op, want 0", recorded, allocs)
		}
		if ctx.Orch.Migrations() != migrations {
			t.Fatalf("placements still moving in steady state (%d -> %d migrations)", migrations, ctx.Orch.Migrations())
		}
		if recorded && ctx.Rec.Dropped() == 0 {
			t.Fatal("the recorder's ring never wrapped")
		}
	}
}

// TestRecordVocabularyMatches: records name zones by fridge.Zone and
// levels by core.Criticality through plain conversions, so obs's tables
// must list them in the same order.
func TestRecordVocabularyMatches(t *testing.T) {
	for _, z := range []Zone{Hot, Warm, Cold} {
		if got := obs.Zone(z).String(); got != z.String() {
			t.Fatalf("zone %d records as %q, want %q", z, got, z)
		}
	}
	for _, c := range []core.Criticality{core.Low, core.Uncertain, core.High} {
		if got := obs.Level(c).String(); got != c.String() {
			t.Fatalf("level %d records as %q, want %q", c, got, c)
		}
	}
}
