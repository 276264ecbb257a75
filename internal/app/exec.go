package app

import (
	"fmt"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
)

// Placement resolves which server runs each invocation of a service. The
// orchestrator implements it; tests can use fixed maps.
type Placement interface {
	// Route returns the placement handle of service. The executor resolves
	// it once per service and calls it for every invocation; each call
	// returns the server for the next invocation, or nil if the service
	// has no running instance.
	Route(service string) func() *cluster.Server
}

// PlacementFunc adapts a function to the Placement interface.
type PlacementFunc func(service string) *cluster.Server

// Route implements Placement.
func (f PlacementFunc) Route(service string) func() *cluster.Server {
	return func() *cluster.Server { return f(service) }
}

// Executor replays requests of an application Spec against a cluster. One
// request walks its region's stages: the API-layer job first, then each
// stage's calls with their per-call concurrency bounds, recording a span
// per invocation into the trace collector.
//
// Request state lives in pooled request/callRun/invocation objects rather
// than closure chains: the steady-state hot path allocates nothing, and
// each sim.Pool snapshots and restores its live objects, which is what
// makes the executor snapshot/restorable for forked runs.
type Executor struct {
	eng   *sim.Engine
	spec  *Spec
	place Placement
	col   *trace.Collector
	rng   *sim.RNG
	// NetDelay is the one-way network latency added before each
	// invocation is submitted to its host (the paper's services speak
	// HTTP over a local switch; default 100µs).
	NetDelay time.Duration
	// OnExec, when non-nil, receives each finished invocation's service
	// ID (see Microservice.ID) and execution time — the span's Exec —
	// right after its span is recorded: the live-telemetry tap, keyed by
	// ID so it never looks a name up. It must not call back into the
	// executor.
	OnExec func(service int, exec time.Duration)

	launched  uint64
	completed uint64

	// svcs holds per-service state, indexed by service ID; the spec must
	// not gain services after the executor is built.
	svcs []serviceState

	// prof, when non-nil, receives the per-invocation exec count. The
	// exec phase is count-only (see prof.Count): a timed scope per
	// invocation would cost more wall time than the handlers it
	// measures, so invocation seconds stay inside the dispatch scope.
	prof *prof.Profiler

	// reqs and calls pool the in-flight requests and call runs;
	// invocations are pooled per service, in svcs.
	reqs  sim.Pool[request]
	calls sim.Pool[callRun]
}

// serviceState is the executor's state for one service: its placement
// handle, resolved on the service's first invocation, and its
// invocations. Pooling invocations per service keeps a recycled
// invocation's job under the same Tag, so the server it lands on again
// reuses the job's cached busy-time cell instead of looking the tag up.
type serviceState struct {
	route func() *cluster.Server
	invs  sim.Pool[invocation]
}

// request is one in-flight end-to-end request: the API invocation followed
// by the region's stages.
type request struct {
	x *Executor

	region    *Region
	tr        *trace.Trace
	onDone    func(*trace.Trace)
	stage     int // current stage index (-1 while the API job runs)
	stageLeft int // calls of the current stage not yet complete
}

// callRun drives one Call of a stage: Times invocations with at most
// Concurrency in flight.
type callRun struct {
	x *Executor

	req               *request
	call              Call
	issued, completed int
}

// invocation is a single microservice invocation: the network hop, the
// cluster job, and the span bookkeeping. The cluster.Job is embedded (not
// allocated per invocation) and records its own start; the submit and
// OnDone callbacks are built once per object and reused across pool
// recycles — they capture only the invocation pointer itself.
type invocation struct {
	x *Executor

	req    *request // owner when this is the region's API invocation
	cr     *callRun // owner when this is a stage-call invocation
	tr     *trace.Trace
	ms     *Microservice
	demand time.Duration

	host      *cluster.Server
	submitted sim.Time

	job      cluster.Job
	submitFn sim.Handler
}

// NewExecutor builds an executor. rng should be a dedicated sub-stream.
func NewExecutor(eng *sim.Engine, spec *Spec, place Placement, col *trace.Collector, rng *sim.RNG) *Executor {
	x := &Executor{
		eng: eng, spec: spec, place: place, col: col, rng: rng,
		NetDelay: 100 * time.Microsecond,
		svcs:     make([]serviceState, spec.NumServices()),
	}
	x.reqs.New = func(r *request) { r.x = x }
	x.calls.New = func(c *callRun) { c.x = x }
	newInv := func(inv *invocation) {
		inv.x = x
		inv.submitFn = inv.submit
		inv.job.OnDone = inv.onDone
	}
	for i := range x.svcs {
		x.svcs[i].invs.New = newInv
	}
	return x
}

// SetProfiler attaches a phase profiler to the executor's invocation
// counter (nil detaches). Wired by the engine builder.
func (x *Executor) SetProfiler(p *prof.Profiler) { x.prof = p }

// Launched returns how many requests have been started.
func (x *Executor) Launched() uint64 { return x.launched }

// Completed returns how many requests have finished.
func (x *Executor) Completed() uint64 { return x.completed }

// Launch starts one request against region now. onDone (optional) fires
// with the completed trace (see trace.Collector.FinishTrace for how long
// it stays readable).
func (x *Executor) Launch(regionName string, onDone func(*trace.Trace)) {
	r := x.spec.Region(regionName)
	if r == nil {
		panic(fmt.Sprintf("app: Launch on unknown region %q", regionName))
	}
	x.launched++
	req := x.reqs.Get()
	req.region = r
	req.tr = x.col.StartTrace(regionName, x.eng.Now())
	req.onDone = onDone
	req.stage, req.stageLeft = -1, 0
	// The API-layer service performs its own task first, then drives the
	// stages and waits for them (§2.1: upper-level services "not only
	// perform their own tasks, but also wait for the return of the
	// lower-level microservices").
	x.invoke(req, nil, req.tr, r.api, r.APIExec, r.apiExec)
}

// startStage begins stage idx of the request, issuing every call's initial
// concurrent invocations; past the last stage the request finishes.
func (r *request) startStage(idx int) {
	x := r.x
	stages := r.region.Stages
	for idx < len(stages) && len(stages[idx]) == 0 {
		idx++
	}
	if idx >= len(stages) {
		r.finish()
		return
	}
	r.stage = idx
	r.stageLeft = len(stages[idx])
	for i := range stages[idx] {
		c := stages[idx][i]
		cr := x.calls.Get()
		cr.req = r
		cr.call = c
		cr.issued, cr.completed = 0, 0
		conc := c.Concurrency
		if conc < 1 {
			conc = 1
		}
		if conc > c.Times {
			conc = c.Times
		}
		for k := 0; k < conc; k++ {
			cr.issueNext()
		}
	}
}

// callDone marks one of the current stage's calls complete, advancing to
// the next stage when the last one lands.
func (r *request) callDone() {
	r.stageLeft--
	if r.stageLeft == 0 {
		r.startStage(r.stage + 1)
	}
}

func (r *request) finish() {
	x := r.x
	x.completed++
	tr := x.col.FinishTrace(r.tr, x.eng.Now())
	onDone := r.onDone
	x.reqs.Put(r)
	if onDone != nil {
		onDone(tr)
	}
}

// issueNext launches the call's next invocation unless all have been issued.
func (cr *callRun) issueNext() {
	if cr.issued >= cr.call.Times {
		return
	}
	cr.issued++
	cr.x.invoke(nil, cr, cr.req.tr, cr.call.callee, cr.call.Exec, cr.call.exec)
}

// invoke starts one invocation of ms with the given mean demand on behalf
// of req (API layer) or cr (stage call); dist is the demand's jittered
// distribution (see execDist).
func (x *Executor) invoke(req *request, cr *callRun, tr *trace.Trace, ms *Microservice, meanExec time.Duration, dist sim.LogNormalDist) {
	demand := drawDemand(x.rng, ms, meanExec, dist)
	sv := &x.svcs[ms.id]
	if sv.route == nil {
		sv.route = x.place.Route(ms.Name)
	}
	inv := sv.invs.Get()
	inv.req, inv.cr, inv.tr = req, cr, tr
	inv.ms, inv.demand = ms, demand
	if x.NetDelay > 0 {
		x.eng.Hop(x.NetDelay, inv.submitFn)
	} else {
		inv.submit()
	}
}

// drawDemand is one invocation's demand: mean when ms has no jitter,
// else a draw of dist, saturated at the longest Duration where the
// log-normal's tail would wrap the conversion negative.
func drawDemand(rng *sim.RNG, ms *Microservice, mean time.Duration, dist sim.LogNormalDist) time.Duration {
	if ms.Jitter > 0 {
		return sim.Saturate(rng.Draw(dist))
	}
	return mean
}

func (inv *invocation) submit() {
	x := inv.x
	// Count-only: a timed scope per invocation costs more than the
	// handler (see prof.Count); the wall time lands under Dispatch.
	x.prof.Count(prof.Exec)
	host := x.svcs[inv.ms.id].route()
	if host == nil {
		panic(fmt.Sprintf("app: service %q has no placed instance", inv.ms.Name))
	}
	inv.host = host
	inv.submitted = x.eng.Now()
	inv.job.Tag = inv.ms.Name
	inv.job.Demand = inv.demand
	inv.job.Slowdown = inv.ms.Slowdown()
	host.Submit(&inv.job)
}

func (inv *invocation) onDone() {
	x := inv.x
	now := x.eng.Now()
	started := inv.job.Started()
	x.col.AddSpan(inv.tr, trace.Span{
		Service: inv.ms.Name,
		Host:    inv.host.Name(),
		Submit:  inv.submitted,
		Start:   started,
		End:     now,
		FreqGHz: float64(inv.job.StartFreq()),
	})
	if x.OnExec != nil {
		x.OnExec(inv.ms.id, now.Sub(started))
	}
	req, cr := inv.req, inv.cr
	x.svcs[inv.ms.id].invs.Put(inv)
	if cr != nil {
		cr.completed++
		if cr.completed == cr.call.Times {
			r := cr.req
			x.calls.Put(cr)
			r.callDone()
			return
		}
		cr.issueNext()
		return
	}
	// The API-layer job finished: drive the stages.
	req.startStage(0)
}
