// Package trace is the request-tracing substrate standing in for Zipkin in
// the paper's methodology (§3.1): every request produces a trace of spans,
// one per microservice invocation, from which response times, per-service
// execution times and call counts are extracted — exactly the inputs the
// paper feeds its offline analysis and MCF calculator. Per-service
// analyses read the retained spans (KeepSpans); the collector keeps no
// per-service sample lists of its own.
package trace

import (
	"slices"
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

// recordSlabSize is how many completed records one slab allocation covers,
// and spanSlabSize how many retained spans one span-slab chunk holds.
const (
	recordSlabSize = 256
	spanSlabSize   = 4096
)

// Collector gathers completed traces, like the Zipkin UI on the manager
// node. It also maintains finish-ordered response stores so that latency
// queries do not re-walk (or re-allocate from) every trace.
//
// An open trace (StartTrace..FinishTrace) is a working object: once
// finished it is recycled for a later request. What survives a request is
// its response time in the finish-ordered series and, under KeepSpans
// only, a completed record written once into a record slab and never
// rewritten, whose spans are copied into an exact-length window of an
// append-only span slab — nothing else reads the records, and Count comes
// from the series. Keeping the two apart is what lets a snapshot list
// completed records by pointer while Restore revives open traces in
// place, and lets an open trace keep its span buffer from request to
// request.
type Collector struct {
	nextID uint64
	// traces lists the completed records in completion order (KeepSpans
	// only).
	traces []*Trace
	// KeepSpans controls whether spans are recorded and completed
	// records, with their span lists, retained. Long experiments that
	// only need response times disable it to bound memory: the collector
	// then keeps only the finish-ordered response series, and AddSpan
	// does nothing.
	KeepSpans bool

	all      series
	byRegion map[string]*series

	// OnFinish, when non-nil, is invoked synchronously from FinishTrace —
	// the live-telemetry tap of response times. It observes the value the
	// collector records and must not call back into the collector.
	OnFinish func(region string, resp time.Duration)

	// records is the unused tail of the current completed-record slab,
	// spans that of the current span-slab chunk.
	records []Trace
	spans   []Span

	// open pools the open traces, so a snapshot can enumerate (and a
	// restore rewind) in-flight requests, and finished ones are reused.
	open sim.Pool[Trace]
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
// with a known request population never grows the finish-ordered stores
// (nor, under KeepSpans, the record list and slab). The span slab is not
// pre-sized, since spans per request vary by region: it grows one
// allocation per spanSlabSize retained spans.
func (c *Collector) Grow(nTraces int) {
	grow := func(s *series) {
		s.finish = slices.Grow(s.finish, nTraces)
		s.resp = slices.Grow(s.resp, nTraces)
	}
	grow(&c.all)
	for _, rs := range c.byRegion {
		grow(rs)
	}
	if c.KeepSpans {
		c.traces = slices.Grow(c.traces, nTraces)
		if len(c.records) < nTraces {
			c.records = make([]Trace, nTraces)
		}
	}
}

// StartTrace opens a trace for a request entering region at time at. The
// trace object may be a recycled one.
func (c *Collector) StartTrace(region string, at sim.Time) *Trace {
	c.nextID++
	t := c.open.Get()
	*t = Trace{ID: c.nextID, Region: region, Begin: at, Spans: t.Spans[:0]}
	return t
}

// AddSpan appends a completed span to an open trace (under KeepSpans;
// otherwise nothing reads it).
func (c *Collector) AddSpan(t *Trace, s Span) {
	if t.done {
		panic("trace: AddSpan on a finished trace")
	}
	if c.KeepSpans {
		t.Spans = append(t.Spans, s)
	}
}

// FinishTrace closes the trace at time at, records it, and returns the
// completed trace: under KeepSpans the retained record, otherwise t
// itself, which stays readable only until the next StartTrace recycles
// it.
func (c *Collector) FinishTrace(t *Trace, at sim.Time) *Trace {
	if t.done {
		panic("trace: FinishTrace called twice")
	}
	t.Finish = at
	t.done = true
	c.open.Put(t)
	rec := t
	if c.KeepSpans {
		// The record gets a copy of the spans; the recycled trace keeps
		// its buffer for its next request.
		if len(c.records) == 0 {
			c.records = make([]Trace, recordSlabSize)
		}
		rec = &c.records[0]
		c.records = c.records[1:]
		*rec = *t
		rec.Spans = c.retain(t.Spans)
		c.traces = append(c.traces, rec)
	}
	resp := rec.Response()
	c.all.add(at, resp)
	rs := c.byRegion[rec.Region]
	if rs == nil {
		rs = &series{}
		c.byRegion[rec.Region] = rs
	}
	rs.add(at, resp)
	if c.OnFinish != nil {
		c.OnFinish(rec.Region, resp)
	}
	return rec
}

// retain copies spans into the next window of the span slab and returns
// the window, cut to its exact length so no append through it can reach a
// neighbour. Windows are written once and never handed out again (a
// snapshot may share them through its records); a trace longer than a
// chunk gets a chunk of its own, leaving the current one's tail in use.
func (c *Collector) retain(spans []Span) []Span {
	n := len(spans)
	var w []Span
	if n > spanSlabSize {
		w = make([]Span, n)
	} else {
		if n > len(c.spans) {
			c.spans = make([]Span, spanSlabSize)
		}
		w = c.spans[:n:n]
		c.spans = c.spans[n:]
	}
	copy(w, spans)
	return w
}

// Traces returns the retained completed traces in completion order;
// empty unless KeepSpans.
func (c *Collector) Traces() []*Trace { return c.traces }

// Open returns the number of traces started but not finished.
func (c *Collector) Open() int { return c.open.Live() }

// Count returns the number of completed traces, optionally filtered by
// region ("" matches all).
func (c *Collector) Count(region string) int {
	if region == "" {
		return len(c.all.resp)
	}
	if rs := c.byRegion[region]; rs != nil {
		return len(rs.resp)
	}
	return 0
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
