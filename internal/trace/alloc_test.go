package trace

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

func span(svc string, at sim.Time) Span {
	return Span{Service: svc, Host: "h0", Submit: at, Start: at, End: at.Add(time.Millisecond)}
}

// TestAddSpanZeroAllocs pins the hot-path claim from the redesign: with a
// recycled span backing array, recording a span is allocation-free.
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
// StartTrace, AddSpan, FinishTrace — at steady state: the Trace slab,
// span pool and finish-ordered stores are all pre-grown, so an
// entire simulated request costs zero collector allocations.
func TestTraceLifecycleZeroAllocs(t *testing.T) {
	c := NewCollector()
	c.KeepSpans = false

	// One warm-up cycle creates the region series and seeds the span pool,
	// then Grow pre-fills every store including the Trace slab.
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
