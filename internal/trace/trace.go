// Package trace is the request-tracing substrate standing in for Zipkin in
// the paper's methodology (§3.1): every request produces a trace of spans,
// one per microservice invocation, from which response times, per-service
// execution times and call counts are extracted — exactly the inputs the
// paper feeds its offline analysis and MCF calculator. Per-service
// analyses read the retained spans (KeepSpans); the collector keeps no
// per-service sample lists of its own.
package trace

import (
	"sort"
	"time"

	"servicefridge/internal/sim"
)

// Span records one microservice invocation within a request.
type Span struct {
	// Service is the invoked microservice.
	Service string
	// Host is the server the invocation ran on.
	Host string
	// Submit is when the call was dispatched (enters the host queue).
	Submit sim.Time
	// Start is when it began executing on a core.
	Start sim.Time
	// End is when it completed.
	End sim.Time
	// FreqGHz is the host's operating frequency when the span started
	// executing (0 if unrecorded). Offline analyses use it to separate
	// DVFS-induced inflation from load-induced queueing — the critical-path
	// blame decomposition — without consulting the live cluster.
	FreqGHz float64
}

// Exec returns the span's pure execution time (core occupancy).
func (s Span) Exec() time.Duration { return s.End.Sub(s.Start) }

// Latency returns queueing plus execution time.
func (s Span) Latency() time.Duration { return s.End.Sub(s.Submit) }

// Queued returns the time spent waiting for a core.
func (s Span) Queued() time.Duration { return s.Start.Sub(s.Submit) }

// Trace is the full record of one request.
type Trace struct {
	// ID is a collector-unique request identifier.
	ID uint64
	// Region is the microservice region (API) the request targeted.
	Region string
	// Begin and Finish bracket the request end to end.
	Begin, Finish sim.Time
	// Spans lists every invocation, in dispatch order.
	Spans []Span
	done  bool
	// openIdx is the trace's index in its collector's open list while open
	// (int32 packs it beside done, keeping Trace at its former size).
	openIdx int32
}

// Response returns the request's end-to-end response time.
func (t *Trace) Response() time.Duration { return t.Finish.Sub(t.Begin) }

// Done reports whether the trace has been completed.
func (t *Trace) Done() bool { return t.done }

// CallCount returns how many times service was invoked in this request.
func (t *Trace) CallCount(service string) int {
	n := 0
	for _, s := range t.Spans {
		if s.Service == service {
			n++
		}
	}
	return n
}

// ServiceExec returns the total execution time spent in service.
func (t *Trace) ServiceExec(service string) time.Duration {
	var sum time.Duration
	for _, s := range t.Spans {
		if s.Service == service {
			sum += s.Exec()
		}
	}
	return sum
}

// series is a finish-ordered store of completed-trace response times.
// Traces complete in simulation-time order, so finish is (normally)
// already sorted and warm-up queries reduce to one binary search; unsorted
// tracks the invariant so an out-of-order caller degrades to a scan
// instead of silently misfiltering. The zero series is empty and sorted.
type series struct {
	finish   []sim.Time
	resp     []time.Duration
	unsorted bool
}

func (s *series) add(finish sim.Time, resp time.Duration) {
	if n := len(s.finish); n > 0 && finish < s.finish[n-1] {
		s.unsorted = true
	}
	s.finish = append(s.finish, finish)
	s.resp = append(s.resp, resp)
}

// after returns the responses of entries finishing at or after cut. On the
// sorted fast path the result is a read-only view into the store.
func (s *series) after(cut sim.Time) []time.Duration {
	if s == nil {
		return nil
	}
	if !s.unsorted {
		i := sort.Search(len(s.finish), func(i int) bool { return s.finish[i] >= cut })
		return s.resp[i:]
	}
	var out []time.Duration
	for i, f := range s.finish {
		if f >= cut {
			out = append(out, s.resp[i])
		}
	}
	return out
}

// traceSlabSize is how many Trace structs one slab allocation covers.
const traceSlabSize = 256

// Collector gathers completed traces, like the Zipkin UI on the manager
// node. It also maintains finish-ordered response stores so that latency
// queries do not re-walk (or re-allocate from) every trace.
type Collector struct {
	nextID uint64
	traces []*Trace
	// KeepSpans controls whether span lists are retained on completed
	// traces. Long experiments that only need response times can disable
	// it to bound memory; the collector then recycles span backing arrays
	// across traces, making steady-state span recording allocation-free.
	KeepSpans bool

	all      series
	byRegion map[string]*series

	// OnSpan and OnFinish, when non-nil, are invoked synchronously from
	// AddSpan and FinishTrace respectively — the live-telemetry taps. They
	// observe the same values the collector records and must not call back
	// into the collector.
	OnSpan   func(s Span)
	OnFinish func(region string, resp time.Duration)

	// slab batches Trace allocations; spanPool recycles span backing
	// arrays of finished traces when KeepSpans is off.
	slab     []Trace
	spanPool [][]Span

	// openList tracks the open traces (index-tracked, swap-removed) so a
	// snapshot can enumerate (and a restore rewind) in-flight requests.
	openList []*Trace
}

// NewCollector returns an empty collector that retains spans.
func NewCollector() *Collector {
	return &Collector{
		KeepSpans: true,
		byRegion:  make(map[string]*series),
	}
}

// Presize does nothing: the collector no longer keeps per-service tallies
// to reserve. It remains only because the benchmark module's probes
// (bench/probes.go) call it, and goes once they stop.
func (c *Collector) Presize(services []string, spansPerService int) {}

// Grow pre-allocates storage for about nTraces completed traces, so a run
// with a known request population never grows the finish-ordered stores.
func (c *Collector) Grow(nTraces int) {
	grow := func(s *series) {
		if cap(s.finish)-len(s.finish) < nTraces {
			f := make([]sim.Time, len(s.finish), len(s.finish)+nTraces)
			copy(f, s.finish)
			s.finish = f
			r := make([]time.Duration, len(s.resp), len(s.resp)+nTraces)
			copy(r, s.resp)
			s.resp = r
		}
	}
	grow(&c.all)
	for _, rs := range c.byRegion {
		grow(rs)
	}
	if cap(c.traces)-len(c.traces) < nTraces {
		ts := make([]*Trace, len(c.traces), len(c.traces)+nTraces)
		copy(ts, c.traces)
		c.traces = ts
	}
	if len(c.slab) < nTraces {
		c.slab = make([]Trace, nTraces)
	}
}

// allocTrace hands out one zeroed Trace from the current slab, cutting
// per-request allocations to one slab per traceSlabSize requests.
func (c *Collector) allocTrace() *Trace {
	if len(c.slab) == 0 {
		c.slab = make([]Trace, traceSlabSize)
	}
	t := &c.slab[0]
	c.slab = c.slab[1:]
	return t
}

// StartTrace opens a trace for a request entering region at time at.
func (c *Collector) StartTrace(region string, at sim.Time) *Trace {
	c.nextID++
	t := c.allocTrace()
	t.ID = c.nextID
	t.Region = region
	t.Begin = at
	t.openIdx = int32(len(c.openList))
	c.openList = append(c.openList, t)
	if !c.KeepSpans {
		if n := len(c.spanPool); n > 0 {
			t.Spans = c.spanPool[n-1]
			c.spanPool[n-1] = nil
			c.spanPool = c.spanPool[:n-1]
		}
	}
	return t
}

// AddSpan appends a completed span to an open trace.
func (c *Collector) AddSpan(t *Trace, s Span) {
	if t.done {
		panic("trace: AddSpan on a finished trace")
	}
	t.Spans = append(t.Spans, s)
	if c.OnSpan != nil {
		c.OnSpan(s)
	}
}

// FinishTrace closes the trace at time at and records it.
func (c *Collector) FinishTrace(t *Trace, at sim.Time) {
	if t.done {
		panic("trace: FinishTrace called twice")
	}
	t.Finish = at
	t.done = true
	n := len(c.openList) - 1
	last := c.openList[n]
	c.openList[t.openIdx] = last
	last.openIdx = t.openIdx
	c.openList[n] = nil
	c.openList = c.openList[:n]
	if !c.KeepSpans {
		if cap(t.Spans) > 0 {
			c.spanPool = append(c.spanPool, t.Spans[:0])
		}
		t.Spans = nil
	}
	c.traces = append(c.traces, t)
	resp := t.Response()
	c.all.add(at, resp)
	rs := c.byRegion[t.Region]
	if rs == nil {
		rs = &series{}
		c.byRegion[t.Region] = rs
	}
	rs.add(at, resp)
	if c.OnFinish != nil {
		c.OnFinish(t.Region, resp)
	}
}

// Traces returns all completed traces in completion order.
func (c *Collector) Traces() []*Trace { return c.traces }

// Open returns the number of traces started but not finished.
func (c *Collector) Open() int { return len(c.openList) }

// Count returns the number of completed traces, optionally filtered by
// region ("" matches all).
func (c *Collector) Count(region string) int {
	if region == "" {
		return len(c.traces)
	}
	if rs := c.byRegion[region]; rs != nil {
		return len(rs.resp)
	}
	return 0
}

// ResponseTimes returns the response times of completed traces for region
// ("" matches all), in completion order. The slice is the caller's to keep.
func (c *Collector) ResponseTimes(region string) []time.Duration {
	src := c.all.resp
	if region != "" {
		rs := c.byRegion[region]
		if rs == nil {
			return nil
		}
		src = rs.resp
	}
	if len(src) == 0 {
		return nil
	}
	return append([]time.Duration(nil), src...)
}

// ResponseAfter returns response times of traces that finished at or after
// cut, for region ("" matches all) — used to discard warm-up. Traces finish
// in simulation-time order, so this is one binary search over the
// finish-ordered store; the result is a read-only view into that store and
// must not be modified by the caller.
func (c *Collector) ResponseAfter(region string, cut sim.Time) []time.Duration {
	if region == "" {
		return c.all.after(cut)
	}
	return c.byRegion[region].after(cut)
}

// MeanCallTimes returns the average number of invocations of service per
// completed request in region. Requires KeepSpans.
func (c *Collector) MeanCallTimes(service, region string) float64 {
	n, reqs := 0, 0
	for _, t := range c.traces {
		if region != "" && t.Region != region {
			continue
		}
		reqs++
		n += t.CallCount(service)
	}
	if reqs == 0 {
		return 0
	}
	return float64(n) / float64(reqs)
}
