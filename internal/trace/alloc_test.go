package trace

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"servicefridge/internal/sim"
)

func span(svc string, at sim.Time) Span {
	return Span{Service: svc, Host: "h0", Submit: at, Start: at, End: at.Add(time.Millisecond)}
}

// TestAddSpanZeroAllocs pins the hot-path claim: with KeepSpans off the
// collector stores no spans, so recording one is allocation-free.
func TestAddSpanZeroAllocs(t *testing.T) {
	c := NewCollector()
	c.KeepSpans = false
	c.Grow(16)

	// Warm a large span backing array through the pool: finish a fat trace
	// so its backing is recycled into the next StartTrace.
	warm := c.StartTrace("A", 0)
	for i := 0; i < 4096; i++ {
		c.AddSpan(warm, span("svc", sim.Time(i)))
	}
	c.FinishTrace(warm, 5000)

	tr := c.StartTrace("A", 6000)
	at := sim.Time(6000)
	allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(time.Microsecond)
		c.AddSpan(tr, span("svc", at))
	})
	if allocs != 0 {
		t.Fatalf("AddSpan allocated %.3f objects/op, want 0", allocs)
	}
	c.FinishTrace(tr, at.Add(time.Millisecond))
}

// TestTraceLifecycleZeroAllocs covers the whole per-request cycle —
// StartTrace, AddSpan, FinishTrace — at steady state: finished traces are
// recycled and the finish-ordered stores are pre-grown, so an entire
// simulated request costs zero collector allocations.
func TestTraceLifecycleZeroAllocs(t *testing.T) {
	c := NewCollector()
	c.KeepSpans = false

	// One warm-up cycle creates the region series and a recyclable trace,
	// then Grow pre-fills the finish-ordered stores.
	warm := c.StartTrace("A", 0)
	c.AddSpan(warm, span("svc", 0))
	c.AddSpan(warm, span("svc", 1))
	c.FinishTrace(warm, 10)
	c.Grow(4096)

	at := sim.Time(100)
	allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(time.Millisecond)
		tr := c.StartTrace("A", at)
		c.AddSpan(tr, span("svc", at))
		c.AddSpan(tr, span("svc", at.Add(time.Microsecond)))
		c.FinishTrace(tr, at.Add(2*time.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("Start+AddSpan+Finish allocated %.3f objects/op, want 0", allocs)
	}
}

// TestKeepSpansLifecycleAllocs is the retained-span version of the
// lifecycle test: under KeepSpans a finished trace's spans are copied into
// the shared span slab and the recycled trace keeps its buffer, so a
// request allocates nothing of its own. The slab's one chunk per
// spanSlabSize spans (four over this loop) averages well under one
// allocation per request, which AllocsPerRun reads as 0.
func TestKeepSpansLifecycleAllocs(t *testing.T) {
	c := NewCollector()
	warm := c.StartTrace("A", 0)
	for i := 0; i < 15; i++ {
		c.AddSpan(warm, span("svc", sim.Time(i)))
	}
	c.FinishTrace(warm, 20)
	c.Grow(4096)

	at := sim.Time(100)
	allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(time.Millisecond)
		tr := c.StartTrace("A", at)
		for i := 0; i < 15; i++ {
			c.AddSpan(tr, span("svc", at.Add(time.Duration(i)*time.Microsecond)))
		}
		c.FinishTrace(tr, at.Add(time.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("Start+15×AddSpan+Finish under KeepSpans allocated %.3f objects/op, want 0", allocs)
	}
	if got := len(c.Traces()); got != 1002 {
		t.Fatalf("retained %d traces, want 1002", got)
	}
}

// TestRetainedSpansDoNotAlias guards the span slab's windows: a finished
// record's spans must not change when its trace object is recycled and
// refilled, nor when a caller appends to the record's or a neighbour's
// span list. Windows are cut to their exact length, so an append copies
// instead of writing into the next record's window.
func TestRetainedSpansDoNotAlias(t *testing.T) {
	c := NewCollector()
	var recs []*Trace
	var want [][]Span
	tr := c.StartTrace("A", 0)
	for k, n := range []int{3, 5, 2, spanSlabSize + 1, 4} {
		if k > 0 {
			next := c.StartTrace("A", sim.Time(k))
			if next != tr {
				t.Fatalf("request %d: StartTrace did not recycle the finished trace", k)
			}
			tr = next
		}
		var spans []Span
		for i := 0; i < n; i++ {
			s := span(fmt.Sprintf("svc%d-%d", k, i), sim.Time(100*k+i))
			spans = append(spans, s)
			c.AddSpan(tr, s)
		}
		rec := c.FinishTrace(tr, sim.Time(100*k+n))
		if rec == tr {
			t.Fatalf("request %d: FinishTrace returned the working trace, not a record", k)
		}
		if len(rec.Spans) != n || cap(rec.Spans) != n {
			t.Fatalf("request %d: record spans len %d cap %d, want both %d", k, len(rec.Spans), cap(rec.Spans), n)
		}
		recs = append(recs, rec)
		want = append(want, spans)
	}
	// Refill the recycled trace past every record's length, then append
	// through each record's span list.
	tr = c.StartTrace("B", 1000)
	for i := 0; i < 8; i++ {
		c.AddSpan(tr, span("refill", sim.Time(1000+i)))
	}
	for _, rec := range recs {
		_ = append(rec.Spans, span("appended", 2000))
	}
	for k, rec := range recs {
		if !slices.Equal(rec.Spans, want[k]) {
			t.Fatalf("record %d spans changed after recycling and appends", k)
		}
	}
}

// TestResponseAfterMatchesLinearScan checks the binary-search fast path
// against a brute-force filter, for every cut position including the
// boundaries, and then again after an out-of-order finish has flipped the
// store to the unsorted fallback.
func TestResponseAfterMatchesLinearScan(t *testing.T) {
	c := NewCollector()
	finishes := []sim.Time{10, 20, 20, 35, 50, 50, 50, 80}
	for i, f := range finishes {
		tr := c.StartTrace("A", sim.Time(i))
		c.FinishTrace(tr, f)
	}

	check := func(label string) {
		t.Helper()
		for _, cut := range []sim.Time{0, 10, 15, 20, 21, 50, 51, 80, 81, 1000} {
			var want []time.Duration
			for _, tr := range c.Traces() {
				if tr.Finish >= cut {
					want = append(want, tr.Response())
				}
			}
			got := c.ResponseAfter("A", cut)
			if len(got) != len(want) {
				t.Fatalf("%s cut=%d: got %d responses, want %d", label, cut, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s cut=%d idx=%d: got %v, want %v", label, cut, i, got[i], want[i])
				}
			}
			if all := c.ResponseAfter("", cut); len(all) != len(want) {
				t.Fatalf("%s cut=%d: all-regions got %d, want %d", label, cut, len(all), len(want))
			}
		}
	}
	check("sorted")

	// An out-of-order completion must degrade to the scan, not misfilter.
	late := c.StartTrace("A", 90)
	c.FinishTrace(late, 40)
	if !c.all.unsorted {
		t.Fatal("out-of-order finish did not mark the store unsorted")
	}
	check("unsorted")

	if got := c.ResponseAfter("nosuch", 0); got != nil {
		t.Fatalf("unknown region: got %v, want nil", got)
	}
}

// TestResponseAfterZeroAllocsSorted: on the sorted fast path the query is a
// binary search returning a view — no per-query slice rebuild.
func TestResponseAfterZeroAllocsSorted(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 1000; i++ {
		tr := c.StartTrace("A", sim.Time(i*1000))
		c.FinishTrace(tr, sim.Time(i*1000+500))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = c.ResponseAfter("A", 500_000)
		_ = c.ResponseAfter("", 500_000)
	})
	if allocs != 0 {
		t.Fatalf("ResponseAfter allocated %.3f objects/op, want 0", allocs)
	}
}
