package bench

import (
	"runtime"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
)

// Probes: tight loops over single public calls of one layer, shaped by the
// traced unit (its app's services and regions, its calendar population,
// whether it keeps spans). Each probe sizes its batch to about
// probeBatchTime, builds fresh state per batch, and reports the per-call
// nanoseconds and allocations of probeBatches batches.

const (
	probeBatches   = 5
	probeBatchTime = 10 * time.Millisecond
)

// shape is what the probes take from the traced unit.
type shape struct {
	seed      uint64
	spec      *app.Spec
	keepSpans bool
	pending   int // median calendar population at slice boundaries
	// mix is the traced unit's completed requests per region (spec
	// order). Regions differ by orders of magnitude in span count (the
	// study app's region A makes 259 invocations, region B 8), so probes
	// replay requests in the unit's completed mix, not an even one.
	mix [maxRegions]uint64
}

// mixOrder is a repeating region sequence (indices into the spec's region
// order) with each region's share of the unit's completed requests,
// interleaved by smooth weighted round robin.
func (s shape) mixOrder() []int {
	const length = 1000
	var total float64
	for _, n := range s.mix {
		total += float64(n)
	}
	credit := make([]float64, len(s.spec.RegionNames()))
	order := make([]int, 0, length)
	for len(order) < length {
		best := 0
		for i := range credit {
			credit[i] += float64(s.mix[i]) / total
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best]--
		order = append(order, best)
	}
	return order
}

// requestServices lists, per region, the service of every span one
// request records: the API invocation, then each call's invocations.
func (s shape) requestServices() [][]string {
	var out [][]string
	for _, name := range s.spec.RegionNames() {
		r := s.spec.Region(name)
		seq := []string{r.API}
		for _, c := range r.Calls() {
			for k := 0; k < c.Times; k++ {
				seq = append(seq, c.Service)
			}
		}
		out = append(out, seq)
	}
	return out
}

// measure times op in batches; setup builds fresh state and returns op.
func measure(setup func() func()) (ns, allocs []float64) {
	n := 1
	for {
		op := setup()
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t) >= probeBatchTime || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var before, after runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		op := setup()
		runtime.ReadMemStats(&before)
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		d := time.Since(t)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return ns, allocs
}

func noop() {}

// deployed builds a default testbed with the app deployed the way
// engine.BuildE deploys an unpinned spec.
func (s shape) deployed() (*sim.Engine, *orchestrator.Orchestrator) {
	eng := sim.NewEngine(s.seed)
	orch := orchestrator.New(cluster.DefaultTestbed(eng))
	orch.DeployRoundRobin(s.spec.PlacedServices())
	return eng, orch
}

// probeResults holds every probe's per-batch samples.
type probeResults map[string][]float64

func runProbes(s shape) probeResults {
	out := probeResults{}
	seqs := s.requestServices()
	regions := s.spec.RegionNames()
	order := s.mixOrder()

	// Calendar: schedule one event and dispatch the earliest, at the
	// traced unit's median population. Delays cycle through a fixed
	// pseudo-random table so every batch does identical work.
	delays := make([]time.Duration, 4096)
	rng := sim.NewRNG(s.seed)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(int(time.Second)))
	}
	out["sim.calendar_ns"], _ = measure(func() func() {
		eng := sim.NewEngine(s.seed)
		for i := 0; i < s.pending; i++ {
			eng.Schedule(delays[i%len(delays)], noop)
		}
		i := 0
		return func() {
			eng.Schedule(delays[i%len(delays)], noop)
			eng.Step()
			i++
		}
	})

	// One isolated request of the region mix through a fresh executor:
	// the whole request path (its calendar events, jobs, placements and
	// spans) with no contention. app.request_events is that path's
	// calendar events per request.
	var isoEvents float64
	out["app.request_ns"], out["app.request_allocs"] = measure(func() func() {
		eng, orch := s.deployed()
		col := trace.NewCollector()
		col.KeepSpans = s.keepSpans
		col.Presize(s.spec.ServiceNames(), 0)
		x := app.NewExecutor(eng, s.spec, orch, col, eng.RNG().Stream("exec"))
		i := 0
		return func() {
			x.Launch(regions[order[i%len(order)]], nil)
			eng.Run()
			i++
			isoEvents = float64(eng.Processed()) / float64(i)
		}
	})
	out["app.request_events"] = []float64{isoEvents}

	// One job through an idle server: Submit, then the completion event.
	svc := seqs[0][len(seqs[0])-1]
	ms := s.spec.Service(svc)
	out["cluster.job_ns"], out["cluster.job_allocs"] = measure(func() func() {
		eng := sim.NewEngine(s.seed)
		srv := cluster.NewServer(eng, "probe", cluster.RoleNormalWorker, 6)
		job := &cluster.Job{Tag: svc, Demand: time.Millisecond, Slowdown: ms.Slowdown(), OnDone: noop}
		return func() {
			srv.Submit(job)
			eng.Step()
		}
	})

	// Placement lookups in request order.
	var flat []string
	for _, r := range order {
		flat = append(flat, seqs[r]...)
	}
	out["orchestrator.hostfor_ns"], _ = measure(func() func() {
		_, orch := s.deployed()
		i := 0
		return func() {
			orch.HostFor(flat[i%len(flat)])
			i++
		}
	})

	// One request's trace: StartTrace, one AddSpan per invocation, and
	// FinishTrace, with the unit's KeepSpans.
	out["trace.request_ns"], out["trace.request_allocs"] = measure(func() func() {
		col := trace.NewCollector()
		col.KeepSpans = s.keepSpans
		col.Presize(s.spec.ServiceNames(), 0)
		i := 0
		return func() {
			r := order[i%len(order)]
			at := sim.Time(i) * sim.Time(time.Millisecond)
			tr := col.StartTrace(regions[r], at)
			for _, svc := range seqs[r] {
				col.AddSpan(tr, trace.Span{Service: svc, Host: "serverC1", Submit: at, Start: at, End: at + 1})
			}
			col.FinishTrace(tr, at+1)
			i++
		}
	})

	// The MCF counter's per-request bookkeeping: Observe at launch and
	// Complete at finish.
	out["core.counter_ns"], out["core.counter_allocs"] = measure(func() func() {
		c := core.NewCounter(core.BuildGraph(s.spec))
		i := 0
		return func() {
			r := regions[order[i%len(order)]]
			c.Observe(r)
			c.Complete(r)
			i++
		}
	})
	return out
}
