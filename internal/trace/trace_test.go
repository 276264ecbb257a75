package trace

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func TestSpanTimings(t *testing.T) {
	s := Span{Service: "route", Host: "n1", Submit: ms(0), Start: ms(2), End: ms(7)}
	if s.Exec() != 5*time.Millisecond {
		t.Fatalf("exec = %v, want 5ms", s.Exec())
	}
	if s.Queued() != 2*time.Millisecond {
		t.Fatalf("queued = %v, want 2ms", s.Queued())
	}
	if s.Latency() != 7*time.Millisecond {
		t.Fatalf("latency = %v, want 7ms", s.Latency())
	}
}

func TestTraceLifecycle(t *testing.T) {
	c := NewCollector()
	tr := c.StartTrace("A", ms(0))
	if c.Open() != 1 {
		t.Fatalf("open = %d, want 1", c.Open())
	}
	c.AddSpan(tr, Span{Service: "route", Submit: ms(0), Start: ms(0), End: ms(3)})
	c.AddSpan(tr, Span{Service: "route", Submit: ms(3), Start: ms(3), End: ms(6)})
	c.AddSpan(tr, Span{Service: "price", Submit: ms(6), Start: ms(6), End: ms(10)})
	tr = c.FinishTrace(tr, ms(12))
	if c.Open() != 0 {
		t.Fatalf("open = %d, want 0", c.Open())
	}
	if tr.Response() != 12*time.Millisecond {
		t.Fatalf("response = %v, want 12ms", tr.Response())
	}
	if tr.CallCount("route") != 2 || tr.CallCount("price") != 1 || tr.CallCount("x") != 0 {
		t.Fatal("call counts wrong")
	}
	if tr.ServiceExec("route") != 6*time.Millisecond {
		t.Fatalf("route exec = %v, want 6ms", tr.ServiceExec("route"))
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 3; i++ {
		tr := c.StartTrace("A", ms(i*100))
		c.AddSpan(tr, Span{Service: "seat", Submit: ms(i * 100), Start: ms(i * 100), End: ms(i*100 + 10)})
		c.FinishTrace(tr, ms(i*100+20))
	}
	tr := c.StartTrace("B", ms(500))
	c.AddSpan(tr, Span{Service: "seat", Submit: ms(500), Start: ms(500), End: ms(504)})
	c.FinishTrace(tr, ms(510))

	if c.Count("") != 4 || c.Count("A") != 3 || c.Count("B") != 1 {
		t.Fatal("counts wrong")
	}
	if got := c.ResponseTimes("A"); len(got) != 3 || got[0] != 20*time.Millisecond {
		t.Fatalf("A responses = %v", got)
	}
	if got := c.MeanCallTimes("seat", "A"); got != 1 {
		t.Fatalf("mean call times = %v, want 1", got)
	}
}

func TestResponseAfterFiltersWarmup(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		tr := c.StartTrace("A", ms(i*10))
		c.FinishTrace(tr, ms(i*10+5))
	}
	got := c.ResponseAfter("A", ms(25))
	if len(got) != 3 {
		t.Fatalf("got %d post-warmup responses, want 3", len(got))
	}
}

func TestKeepSpansFalseDropsSpans(t *testing.T) {
	c := NewCollector()
	c.KeepSpans = false
	tr := c.StartTrace("A", ms(0))
	c.AddSpan(tr, Span{Service: "s", Submit: ms(0), Start: ms(0), End: ms(1)})
	c.FinishTrace(tr, ms(2))
	if len(c.Traces()) != 0 {
		t.Fatal("completed record (and its spans) retained despite KeepSpans=false")
	}
	if c.Count("") != 1 || c.Count("A") != 1 {
		t.Fatalf("count = %d/%d, want 1/1 from the response series", c.Count(""), c.Count("A"))
	}
}

func TestFinishTwicePanics(t *testing.T) {
	c := NewCollector()
	tr := c.StartTrace("A", ms(0))
	c.FinishTrace(tr, ms(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.FinishTrace(tr, ms(2))
}

func TestAddSpanAfterFinishPanics(t *testing.T) {
	c := NewCollector()
	tr := c.StartTrace("A", ms(0))
	c.FinishTrace(tr, ms(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddSpan(tr, Span{Service: "s"})
}

func spanNames(spans []Span) string {
	var out string
	for _, s := range spans {
		out += s.Service + " "
	}
	return out
}

// TestRestoreRevivesOpenTracesWithOwnSpans: a restore revives each open
// trace with its saved spans, in a buffer no other trace shares, after
// its object was reused by other requests; and the snapshot restores
// again afterwards.
func TestRestoreRevivesOpenTracesWithOwnSpans(t *testing.T) {
	c := NewCollector()
	add := func(tr *Trace, names ...string) {
		for _, n := range names {
			c.AddSpan(tr, Span{Service: n})
		}
	}
	a := c.StartTrace("A", ms(0))
	b := c.StartTrace("B", ms(0))
	add(a, "a1", "a2")
	add(b, "b1")
	snap := c.Snapshot()
	c.FinishTrace(a, ms(1))
	c.FinishTrace(b, ms(1))
	x := c.StartTrace("A", ms(2)) // reuses the trace objects
	y := c.StartTrace("B", ms(2))
	add(x, "x1")
	add(y, "y1", "y2", "y3", "y4", "y5")

	for round := 0; round < 2; round++ {
		c.Restore(snap)
		if c.Open() != 2 {
			t.Fatalf("round %d: %d open traces after restore, want 2", round, c.Open())
		}
		add(a, "a3")
		add(b, "b2")
		if got := spanNames(a.Spans); got != "a1 a2 a3 " {
			t.Fatalf("round %d: revived trace A holds spans %q", round, got)
		}
		if got := spanNames(b.Spans); got != "b1 b2 " {
			t.Fatalf("round %d: revived trace B holds spans %q", round, got)
		}
		recA := c.FinishTrace(a, ms(3))
		recB := c.FinishTrace(b, ms(3))
		if spanNames(recA.Spans) != "a1 a2 a3 " || spanNames(recB.Spans) != "b1 b2 " {
			t.Fatalf("round %d: records hold %q and %q", round, spanNames(recA.Spans), spanNames(recB.Spans))
		}
		z := c.StartTrace("A", ms(4))
		add(z, "z1", "z2", "z3")
	}
}
