package schemes

import (
	"math/rand/v2"
	"testing"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/power"
	"servicefridge/internal/sim"
)

// testContext builds a 5-node testbed with a meter and a given budget
// fraction, plus a background load shape: nBusy servers fully loaded.
func testContext(t *testing.T, fraction float64, busy int) (*sim.Engine, *Context) {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.DefaultTestbed(eng)
	orch := orchestrator.New(cl)
	model := power.DefaultModel()
	meter := power.NewMeter(cl, model, 100*time.Millisecond)
	meter.Start()
	for i, s := range cl.Servers() {
		if i >= busy {
			break
		}
		srv := s
		var loop func()
		loop = func() {
			srv.Submit(&cluster.Job{Tag: "load", Demand: 50 * time.Millisecond, OnDone: loop})
		}
		for c := 0; c < srv.Cores(); c++ {
			loop()
		}
	}
	budget := power.NewBudget(model, cl.Size(), fraction)
	return eng, &Context{Cluster: cl, Meter: meter, Budget: &budget, Orch: orch}
}

func TestBaselineKeepsFreqMax(t *testing.T) {
	eng, ctx := testContext(t, 0.5, 5)
	b := NewBaseline(ctx)
	ctx.Cluster.SetAllFreq(1.2)
	eng.RunFor(time.Second)
	b.Tick()
	for _, s := range ctx.Cluster.Servers() {
		if s.Freq() != cluster.FreqMax {
			t.Fatalf("baseline left %s at %v", s.Name(), s.Freq())
		}
	}
	if b.Name() != "Baseline" {
		t.Fatal("name wrong")
	}
}

func TestCappingChoosesUniformFrequencyUnderCap(t *testing.T) {
	eng, ctx := testContext(t, 0.75, 5) // all servers saturated
	c := NewCapping(ctx)
	eng.RunFor(time.Second)
	c.Tick()
	f := ctx.Cluster.Servers()[0].Freq()
	for _, s := range ctx.Cluster.Servers() {
		if s.Freq() != f {
			t.Fatal("capping must be uniform")
		}
	}
	if f >= cluster.FreqMax {
		t.Fatalf("75%% budget with full load should throttle, got %v", f)
	}
	// The chosen frequency must satisfy the cap for fully-loaded servers.
	m := ctx.Meter.Model()
	if got := m.PeakAt(f) * power.Watts(ctx.Cluster.Size()); got > ctx.Budget.Cap()+1e-9 {
		t.Fatalf("predicted %v exceeds cap %v", got, ctx.Budget.Cap())
	}
	// And one step up must not.
	if up := cluster.StepUp(f); up != f {
		if got := m.PeakAt(up) * power.Watts(ctx.Cluster.Size()); got <= ctx.Budget.Cap() {
			t.Fatalf("capping too conservative: %v would fit", up)
		}
	}
}

func TestCappingFullBudgetNoThrottle(t *testing.T) {
	eng, ctx := testContext(t, 1.0, 5)
	c := NewCapping(ctx)
	eng.RunFor(time.Second)
	c.Tick()
	if f := ctx.Cluster.Servers()[0].Freq(); f != cluster.FreqMax {
		t.Fatalf("100%% budget should not throttle, got %v", f)
	}
}

func TestPFirstThrottlesBusyServersFirst(t *testing.T) {
	eng, ctx := testContext(t, 0.6, 2) // two busy servers, three idle, tight cap
	p := NewPFirst(ctx)
	eng.RunFor(time.Second)
	p.Tick()
	servers := ctx.Cluster.Servers()
	busy0, busy1 := servers[0].Freq(), servers[1].Freq()
	idleMin := cluster.FreqMax
	for _, s := range servers[2:] {
		if s.Freq() < idleMin {
			idleMin = s.Freq()
		}
	}
	if busy0 >= idleMin && busy1 >= idleMin {
		t.Fatalf("P-first should throttle the power-hungry servers first: busy %v/%v idle-min %v",
			busy0, busy1, idleMin)
	}
}

func TestPFirstRecoversWithHeadroom(t *testing.T) {
	eng, ctx := testContext(t, 1.0, 0) // idle cluster, full budget
	p := NewPFirst(ctx)
	ctx.Cluster.SetAllFreq(1.2)
	eng.RunFor(time.Second)
	p.Tick()
	for _, s := range ctx.Cluster.Servers() {
		if s.Freq() != cluster.FreqMax {
			t.Fatalf("with headroom %s stuck at %v", s.Name(), s.Freq())
		}
	}
}

func TestTFirstOrderIsFastestFirst(t *testing.T) {
	_, ctx := testContext(t, 0.8, 0)
	tf := NewTFirst(ctx, app.TwoRegionStudy())
	order := tf.Order()
	if len(order) != 8 {
		t.Fatalf("order has %d services, want 8", len(order))
	}
	// Fastest profile: station (1.2ms in region B) first; seat (25.7ms,
	// A only) last.
	if order[0] != "station" {
		t.Fatalf("fastest-first order starts with %s, want station (order: %v)", order[0], order)
	}
	if order[len(order)-1] != "seat" {
		t.Fatalf("order ends with %s, want seat", order[len(order)-1])
	}
}

func TestTFirstThrottlesFastServiceHostsFirst(t *testing.T) {
	eng, ctx := testContext(t, 0.9, 5)
	spec := app.TwoRegionStudy()
	// Place station (fastest) on serverB, seat (slowest) on serverC3.
	ctx.Orch.DeployPinned("station", "serverB")
	ctx.Orch.DeployPinned("seat", "serverC3")
	tf := NewTFirst(ctx, spec)
	eng.RunFor(time.Second)
	tf.Tick()
	fast := ctx.Cluster.Server("serverB").Freq()
	slow := ctx.Cluster.Server("serverC3").Freq()
	if fast >= slow {
		t.Fatalf("T-first should throttle the fast service's host first: station host %v, seat host %v",
			fast, slow)
	}
}

func TestSchemesKeepPredictionUnderCapWhenPossible(t *testing.T) {
	for _, mk := range []func(*Context) Scheme{
		func(c *Context) Scheme { return NewCapping(c) },
		func(c *Context) Scheme { return NewPFirst(c) },
	} {
		eng, ctx := testContext(t, 0.7, 5)
		s := mk(ctx)
		eng.RunFor(time.Second)
		s.Tick()
		p := newPlan(ctx)
		p.observe()
		if got := p.total(); got > ctx.Budget.Cap()+1e-9 {
			t.Fatalf("%s left predicted draw %v above cap %v", s.Name(), got, ctx.Budget.Cap())
		}
	}
}

// TestSchemeTicksZeroAllocs: under steady load, a Capping, P-first or
// T-first tick reads the meter, plans and actuates without allocating.
func TestSchemeTicksZeroAllocs(t *testing.T) {
	spec := app.TwoRegionStudy()
	for _, mk := range []func(*Context) Scheme{
		func(c *Context) Scheme { return NewCapping(c) },
		func(c *Context) Scheme { return NewPFirst(c) },
		func(c *Context) Scheme { return NewTFirst(c, spec) },
	} {
		eng, ctx := testContext(t, 0.75, 3)
		ctx.Orch.DeployRoundRobinOver(spec.PlacedServices(), ctx.Cluster.Workers())
		s := mk(ctx)
		eng.RunFor(time.Second)
		s.Tick()
		if allocs := testing.AllocsPerRun(100, s.Tick); allocs != 0 {
			t.Errorf("%s tick allocated %.3f objects/op, want 0", s.Name(), allocs)
		}
	}
}

// TestComparatorsRecordFreqSteps: with a recorder attached, a Capping,
// P-first or T-first tick emits one freq_change per SetFreq that moved a
// frequency, in server order and at the tick's time, in the "cluster"
// zone, with the plan's predicted draw against the cap as its cause.
func TestComparatorsRecordFreqSteps(t *testing.T) {
	spec := app.TwoRegionStudy()
	rng := rand.New(rand.NewPCG(21, 1))
	steps := 0
	for trial := 0; trial < 60; trial++ {
		ctx := randomContext(rng, spec)
		servers := ctx.Cluster.Servers()
		for _, s := range []Scheme{NewCapping(ctx), NewPFirst(ctx), NewTFirst(ctx, spec)} {
			ctx.Rec = obs.NewRecorder(0)
			before := make([]uint64, len(servers))
			for i, srv := range servers {
				before[i] = srv.FreqChanges()
			}
			s.Tick()
			p := newPlan(ctx)
			p.observe()
			fit := obs.Cause{Signal: obs.BudgetFit, Value: float64(p.total()), Bound: float64(ctx.Budget.Cap())}
			var want []obs.Record
			for i, srv := range servers {
				if srv.FreqChanges() != before[i] {
					want = append(want, obs.Record{Kind: obs.FreqChange, Server: int32(srv.Index()),
						Zone: obs.ZoneCluster, Value: float64(srv.Freq()), Cause: fit})
				}
			}
			got := ctx.Rec.Events()
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s recorded %d freq_change events for %d frequency steps", trial, s.Name(), len(got), len(want))
			}
			for i, rec := range got {
				w := want[i]
				w.At, w.Seq = ctx.Cluster.Engine().Now(), uint64(i)
				if rec != w {
					t.Fatalf("trial %d: %s event %d = %+v, want %+v", trial, s.Name(), i, rec, w)
				}
			}
			steps += len(want)
		}
	}
	if steps < 100 {
		t.Fatalf("only %d frequency steps over every trial", steps)
	}
}
