package schemes

import (
	"math/rand/v2"
	"testing"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/power"
	"servicefridge/internal/sim"
)

// Name-keyed reference copies of the comparators' load normalization,
// draw prediction and plan searches, which the dense working set must
// reproduce frequency for frequency. They read the meter by server index
// and key everything else by server name.

func refNormLoad(u float64, f cluster.GHz) float64 {
	return u * float64(f) / float64(cluster.FreqMax)
}

func refPredictServer(m power.Model, l float64, f cluster.GHz) power.Watts {
	util := l * float64(cluster.FreqMax) / float64(f)
	if util > 1 {
		util = 1
	}
	return m.Power(f, util)
}

func refServerLoads(ctx *Context) map[string]float64 {
	out := make(map[string]float64, ctx.Cluster.Size())
	for _, s := range ctx.Cluster.Servers() {
		switch smp, ok := ctx.Meter.LastServer(s.Index()); {
		case s.QueueLen() > 0:
			out[s.Name()] = 1
		case ok:
			out[s.Name()] = refNormLoad(smp.Util, smp.Freq)
		default:
			out[s.Name()] = 1
		}
	}
	return out
}

func refPredictTotal(ctx *Context, loads map[string]float64, freq func(*cluster.Server) cluster.GHz) power.Watts {
	var total power.Watts
	m := ctx.Meter.Model()
	for _, s := range ctx.Cluster.Servers() {
		total += refPredictServer(m, loads[s.Name()], freq(s))
	}
	return total
}

func refCurrentPlan(ctx *Context) map[string]cluster.GHz {
	plan := make(map[string]cluster.GHz, ctx.Cluster.Size())
	for _, s := range ctx.Cluster.Servers() {
		plan[s.Name()] = s.Freq()
	}
	return plan
}

func refPlanFreq(plan map[string]cluster.GHz) func(*cluster.Server) cluster.GHz {
	return func(s *cluster.Server) cluster.GHz { return plan[s.Name()] }
}

func refRaiseWithHeadroom(ctx *Context, loads map[string]float64, plan map[string]cluster.GHz) {
	for guard := 0; guard < 13*ctx.Cluster.Size(); guard++ {
		raised := false
		for _, s := range ctx.Cluster.Servers() {
			f := plan[s.Name()]
			if f >= cluster.FreqMax {
				continue
			}
			plan[s.Name()] = cluster.StepUp(f)
			if refPredictTotal(ctx, loads, refPlanFreq(plan)) <= ctx.Budget.Cap() {
				raised = true
			} else {
				plan[s.Name()] = f
			}
		}
		if !raised {
			return
		}
	}
}

// refCapping returns the uniform frequency Capping's search chose.
func refCapping(ctx *Context) cluster.GHz {
	loads := refServerLoads(ctx)
	cap := ctx.Budget.Cap()
	states := cluster.PStates()
	for i := len(states) - 1; i >= 0; i-- {
		f := states[i]
		if refPredictTotal(ctx, loads, func(*cluster.Server) cluster.GHz { return f }) <= cap {
			return f
		}
	}
	return cluster.FreqMin
}

// refPFirst returns P-first's plan without actuating it.
func refPFirst(ctx *Context) map[string]cluster.GHz {
	loads := refServerLoads(ctx)
	cap := ctx.Budget.Cap()
	m := ctx.Meter.Model()
	plan := refCurrentPlan(ctx)
	for guard := 0; guard < 13*ctx.Cluster.Size(); guard++ {
		if refPredictTotal(ctx, loads, refPlanFreq(plan)) <= cap {
			break
		}
		var victim *cluster.Server
		var worst power.Watts = -1
		for _, s := range ctx.Cluster.Servers() {
			f := plan[s.Name()]
			if f <= cluster.FreqMin {
				continue
			}
			if d := refPredictServer(m, loads[s.Name()], f); d > worst {
				worst = d
				victim = s
			}
		}
		if victim == nil {
			break
		}
		plan[victim.Name()] = cluster.StepDown(plan[victim.Name()])
	}
	refRaiseWithHeadroom(ctx, loads, plan)
	return plan
}

// refTFirst returns T-first's plan for the fastest-first order without
// actuating it.
func refTFirst(ctx *Context, order []string) map[string]cluster.GHz {
	loads := refServerLoads(ctx)
	cap := ctx.Budget.Cap()
	plan := refCurrentPlan(ctx)
	for guard := 0; guard < 13*len(order)+13*ctx.Cluster.Size(); guard++ {
		if refPredictTotal(ctx, loads, refPlanFreq(plan)) <= cap {
			break
		}
		stepped := false
		for _, svc := range order {
			for _, n := range ctx.Orch.NodesOf(svc) {
				if plan[n.Name()] > cluster.FreqMin {
					plan[n.Name()] = cluster.StepDown(plan[n.Name()])
					stepped = true
					break
				}
			}
			if stepped {
				break
			}
		}
		if !stepped {
			for _, s := range ctx.Cluster.Servers() {
				if plan[s.Name()] > cluster.FreqMin {
					plan[s.Name()] = cluster.StepDown(plan[s.Name()])
					stepped = true
					break
				}
			}
			if !stepped {
				break
			}
		}
	}
	refRaiseWithHeadroom(ctx, loads, plan)
	return plan
}

// randomContext builds the testbed with the study's placements (plus, at
// random, an extra replica), drives each server from a random P-state with
// a random batch of jobs (more jobs than cores leaves a backlog), and
// stops either after the first meter window or, in a quarter of the
// trials, before it, when no server is sampled. The budget fraction is
// drawn from [0.3, 1] and every server restarts from a random P-state.
func randomContext(rng *rand.Rand, spec *app.Spec) *Context {
	pstate := func() cluster.GHz { return pStates[rng.IntN(len(pStates))] }
	eng := sim.NewEngine(rng.Uint64())
	cl := cluster.DefaultTestbed(eng)
	orch := orchestrator.New(cl)
	orch.DeployRoundRobinOver(spec.PlacedServices(), cl.Workers())
	if rng.IntN(2) == 0 {
		svcs := spec.PlacedServices()
		orch.Place(svcs[rng.IntN(len(svcs))], cl.Servers()[rng.IntN(cl.Size())], true)
	}
	model := power.DefaultModel()
	meter := power.NewMeter(cl, model, time.Second)
	meter.Start()
	for _, s := range cl.Servers() {
		s.SetFreq(pstate())
		for j := rng.IntN(s.Cores() + 3); j > 0; j-- {
			s.Submit(&cluster.Job{Tag: "load", Demand: time.Duration(rng.Int64N(int64(3*time.Second))) + 1})
		}
	}
	if rng.IntN(4) == 0 {
		eng.RunFor(500 * time.Millisecond)
	} else {
		eng.RunFor(time.Second)
	}
	for _, s := range cl.Servers() {
		s.SetFreq(pstate())
	}
	budget := power.NewBudget(model, cl.Size(), 0.3+0.7*rng.Float64())
	return &Context{Cluster: cl, Meter: meter, Budget: &budget, Orch: orch}
}

// TestDensePlansMatchMapReference: over random loads, budgets, starting
// frequencies and placements, Meter.LoadsInto and Model.Predict equal the
// reference normalization and prediction bit for bit, and the dense
// Capping, P-first and T-first set every server to the frequency the
// name-keyed searches chose.
func TestDensePlansMatchMapReference(t *testing.T) {
	spec := app.TwoRegionStudy()
	rng := rand.New(rand.NewPCG(20, 1))
	var sampled, backlogged, binding int
	for trial := 0; trial < 300; trial++ {
		ctx := randomContext(rng, spec)
		servers := ctx.Cluster.Servers()
		start := make([]cluster.GHz, len(servers))
		for i, s := range servers {
			start[i] = s.Freq()
		}
		check := func(name string, want func(*cluster.Server) cluster.GHz) {
			t.Helper()
			for i, s := range servers {
				if s.Freq() != want(s) {
					t.Fatalf("trial %d: %s set %s to %v, reference %v (start %v, loads %v, cap %v)",
						trial, name, s.Name(), s.Freq(), want(s), start, refServerLoads(ctx), ctx.Budget.Cap())
				}
				s.SetFreq(start[i])
			}
		}

		ref := refServerLoads(ctx)
		loads := make([]float64, len(servers))
		ctx.Meter.LoadsInto(loads)
		m := ctx.Meter.Model()
		for i, s := range servers {
			if loads[i] != ref[s.Name()] {
				t.Fatalf("trial %d: LoadsInto[%d] = %v, reference %v", trial, i, loads[i], ref[s.Name()])
			}
			for _, f := range pStates {
				if got, want := m.Predict(loads[i], f), refPredictServer(m, ref[s.Name()], f); got != want {
					t.Fatalf("trial %d: Predict(%v, %v) = %v, reference %v", trial, loads[i], f, got, want)
				}
			}
			if s.QueueLen() > 0 {
				backlogged++
			}
		}
		if _, ok := ctx.Meter.LastServer(0); ok {
			sampled++
		}
		if refPredictTotal(ctx, ref, func(*cluster.Server) cluster.GHz { return cluster.FreqMax }) > ctx.Budget.Cap() {
			binding++
		}

		capF := refCapping(ctx)
		NewCapping(ctx).Tick()
		check("Capping", func(*cluster.Server) cluster.GHz { return capF })

		pPlan := refPFirst(ctx)
		NewPFirst(ctx).Tick()
		check("P-first", refPlanFreq(pPlan))

		tf := NewTFirst(ctx, spec)
		tPlan := refTFirst(ctx, tf.Order())
		tf.Tick()
		check("T-first", refPlanFreq(tPlan))
	}
	// The inputs must reach every branch the reference distinguishes.
	t.Logf("%d sampled, %d backlogged servers, %d binding caps of 300 trials", sampled, backlogged, binding)
	if sampled == 0 || sampled == 300 || backlogged == 0 || binding == 0 || binding == 300 {
		t.Fatalf("inputs too narrow: %d sampled, %d backlogged servers, %d binding caps of 300 trials",
			sampled, backlogged, binding)
	}
}
