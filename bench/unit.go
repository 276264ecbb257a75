package bench

import (
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/engine"
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
)

// A unit is one repeatable piece of a workload that drives a single
// engine.Result through public calls: a warm-start group, a cell, a
// scenario run, or a session plus its what-if sequence. It runs twice per
// measurement, untraced and traced, and the two must agree (passivity).
//
// Traced means: the run carries a detached phase profiler
// (engine.Config.Prof), simulation time advances in sliceLen slices, each
// with its own span and Processed() delta, and the calendar population is
// sampled at every slice boundary. Untraced means one RunUntil per
// advance and no profiler. Both record the coarse spans around each
// public call, which cost a clock read per call.

// sliceLen is the simulation-time slice a traced advance runs per span.
const sliceLen = sim.Time(100 * time.Millisecond)

// Span is one timed call made by the benchmark, in the written trace.
type Span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the unit's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the process's trace epoch
	End    int64  `json:"end_ns"`
	// Events counts calendar events processed inside the span (slices).
	Events uint64 `json:"events,omitempty"`
}

// Dur is the span's wall time in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// epoch is the zero of every span timestamp in the process.
var epoch = time.Now()

// counts are the simulator's cumulative counters a unit accumulates across
// advances and replays. Restore rewinds every one of them, so a unit adds
// deltas measured around each call rather than reading totals at the end.
type counts struct {
	events, requests, jobs, freqChanges, migrations, powerSamples uint64
	// byRegion counts completed requests per region, in the spec's region
	// order: the request mix the probes replay.
	byRegion [maxRegions]uint64
}

// maxRegions bounds the regions of an app family (the largest has six).
const maxRegions = 8

func countsOf(res *engine.Result) counts {
	c := counts{
		events:       res.Engine.Processed(),
		requests:     res.Executor.Completed(),
		migrations:   res.Orch.Migrations(),
		powerSamples: uint64(len(res.Meter.ClusterSamples())),
	}
	for _, s := range res.Cluster.Servers() {
		c.jobs += s.Completed()
		c.freqChanges += s.FreqChanges()
	}
	for i, r := range res.Config.Spec.RegionNames() {
		c.byRegion[i] = uint64(res.Collector.Count(r))
	}
	return c
}

func (c *counts) addDelta(after, before counts) {
	c.events += after.events - before.events
	c.requests += after.requests - before.requests
	c.jobs += after.jobs - before.jobs
	c.freqChanges += after.freqChanges - before.freqChanges
	c.migrations += after.migrations - before.migrations
	c.powerSamples += after.powerSamples - before.powerSamples
	for i := range c.byRegion {
		c.byRegion[i] += after.byRegion[i] - before.byRegion[i]
	}
}

// unitRun is one execution of a unit.
type unitRun struct {
	traced bool
	prof   *prof.Profiler // nil when untraced
	trace  int
	spans  []Span
	open   []int
	acc    counts
	// pending samples the calendar population at each slice boundary.
	pending []float64
	// digest is the unit's canonical output; traced and untraced runs of
	// the same unit must produce identical bytes.
	digest []byte
	// res is the unit's run until settle.
	res *engine.Result

	// Kept by settle for the probes and the per-layer metrics.
	spec      *app.Spec
	keepSpans bool
	fridge    bool
	retained  int // completed traces the collector holds at the end
}

// settle keeps what the metrics need from the unit's run and drops the
// run, so repeated units do not accumulate their heaps.
func (u *unitRun) settle() {
	u.spec, u.keepSpans = u.res.Config.Spec, u.res.Config.KeepSpans
	u.fridge, u.retained = u.res.Fridge != nil, len(u.res.Collector.Traces())
	u.res = nil
}

func newUnitRun(traced bool, trace int, label string) *unitRun {
	u := &unitRun{traced: traced, trace: trace}
	if traced {
		u.prof = prof.NewDetached(label)
	}
	return u
}

func (u *unitRun) begin(name string) {
	parent := -1
	if n := len(u.open); n > 0 {
		parent = u.open[n-1]
	}
	id := len(u.spans)
	u.spans = append(u.spans, Span{Trace: u.trace, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(epoch))})
	u.open = append(u.open, id)
}

func (u *unitRun) end() *Span {
	id := u.open[len(u.open)-1]
	u.open = u.open[:len(u.open)-1]
	sp := &u.spans[id]
	sp.End = int64(time.Since(epoch))
	return sp
}

// timed wraps one call in a span.
func (u *unitRun) timed(name string, fn func()) {
	u.begin(name)
	fn()
	u.end()
}

// advance runs res to until: in slices when traced, in one RunUntil
// otherwise. Calendar semantics are identical either way: RunUntil
// executes exactly the events due by its deadline.
func (u *unitRun) advance(res *engine.Result, until sim.Time) {
	before := countsOf(res)
	defer func() { u.acc.addDelta(countsOf(res), before) }()
	if !u.traced {
		res.Engine.RunUntil(until)
		return
	}
	for now := res.Engine.Now(); ; now += sliceLen {
		next := min(now+sliceLen, until)
		ev := res.Engine.Processed()
		u.begin("sim.slice")
		res.Engine.RunUntil(next)
		u.end().Events = res.Engine.Processed() - ev
		u.pending = append(u.pending, float64(res.Engine.Pending()))
		if next >= until {
			return
		}
	}
}

// replay wraps a call that rewinds res to a base snapshot and replays it
// forward (ForkAt, ReplayTo): its work is the counters' distance from the
// base.
func (u *unitRun) replay(name string, res *engine.Result, base counts, fn func() error) error {
	u.begin(name)
	err := fn()
	u.end()
	u.acc.addDelta(countsOf(res), base)
	return err
}

// finish advances res to its end and stops its generators: Finish, with
// the advance traced.
func (u *unitRun) finish(res *engine.Result) {
	u.advance(res, res.Total())
	res.Finish()
}

// wall is the duration of the unit's root span.
func (u *unitRun) wall() float64 { return float64(u.spans[0].Dur()) }

// durations lists the wall times (ns) of every span called name.
func (u *unitRun) durations(name string) []float64 {
	var out []float64
	for _, s := range u.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}
