package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func msd(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

func TestLatencyStatsBasics(t *testing.T) {
	s := NewLatencyStats()
	if s.Mean() != 0 || s.Count() != 0 || s.Percentile(0.5) != 0 {
		t.Fatal("empty stats should be zero")
	}
	for _, v := range []float64{10, 20, 30, 40, 50} {
		s.Add(msd(v))
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != msd(30) {
		t.Fatalf("mean = %v, want 30ms", s.Mean())
	}
	if s.Min() != msd(10) || s.Max() != msd(50) {
		t.Fatal("min/max wrong")
	}
	if s.Percentile(0.5) != msd(30) {
		t.Fatalf("median = %v", s.Percentile(0.5))
	}
	if s.P90() != msd(46) {
		t.Fatalf("p90 = %v, want 46ms", s.P90())
	}
}

func TestLatencyStatsMinMaxEdgeCases(t *testing.T) {
	empty := NewLatencyStats()
	if empty.Min() != 0 || empty.Max() != 0 {
		t.Fatalf("empty Min/Max = %v/%v, want 0/0", empty.Min(), empty.Max())
	}
	one := FromSamples([]time.Duration{msd(7)})
	if one.Min() != msd(7) || one.Max() != msd(7) {
		t.Fatalf("singleton Min/Max = %v/%v, want 7ms", one.Min(), one.Max())
	}
	// The direct endpoint reads must agree with the quantile endpoints.
	s := FromSamples([]time.Duration{msd(30), msd(10), msd(50), msd(20)})
	if s.Min() != s.Percentile(0) || s.Max() != s.Percentile(1) {
		t.Fatalf("Min/Max diverge from Percentile(0)/Percentile(1): %v/%v vs %v/%v",
			s.Min(), s.Max(), s.Percentile(0), s.Percentile(1))
	}
	// Min/Max before any Percentile call must still trigger the sort.
	u := NewLatencyStats()
	u.Add(msd(9))
	u.Add(msd(3))
	if u.Min() != msd(3) || u.Max() != msd(9) {
		t.Fatalf("unsorted Min/Max = %v/%v, want 3ms/9ms", u.Min(), u.Max())
	}
}

func TestLatencyStatsInterleavedAddAndQuery(t *testing.T) {
	s := NewLatencyStats()
	s.Add(msd(10))
	_ = s.Percentile(0.5) // forces a sort
	s.Add(msd(5))         // must invalidate sort
	if s.Min() != msd(5) {
		t.Fatal("sort invalidation broken")
	}
}

func TestStdDev(t *testing.T) {
	s := FromSamples([]time.Duration{msd(10), msd(10), msd(10)})
	if s.StdDev() != 0 {
		t.Fatalf("stddev of constant = %v", s.StdDev())
	}
	s2 := FromSamples([]time.Duration{msd(10), msd(20)})
	if s2.StdDev() != msd(5) {
		t.Fatalf("stddev = %v, want 5ms", s2.StdDev())
	}
}

func TestSummaryAndNormalize(t *testing.T) {
	s := FromSamples([]time.Duration{msd(10), msd(20), msd(30), msd(40), msd(100)})
	sum := s.Summarize()
	if sum.Count != 5 || sum.Mean != msd(40) {
		t.Fatalf("summary = %+v", sum)
	}
	n := sum.NormalizeTo(msd(20))
	if math.Abs(n.Mean-2.0) > 1e-9 {
		t.Fatalf("normalized mean = %v, want 2", n.Mean)
	}
	zero := sum.NormalizeTo(0)
	if zero.Mean != 0 {
		t.Fatal("normalize to 0 should be zero")
	}
}

func TestPercentileOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewLatencyStats()
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		// Percentiles are monotone and mean lies within [min, max].
		last := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			p := s.Percentile(q)
			if p < last {
				return false
			}
			last = p
		}
		return s.Mean() >= s.Min() && s.Mean() <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "svc", "mean", "p99")
	tb.Rowf("ticketinfo", msd(12.2), 1.5)
	tb.Row("basic", "9.00ms", "1.200")
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "ticketinfo") || !strings.Contains(out, "12.20ms") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, header, rule, two rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestMs(t *testing.T) {
	if Ms(msd(12.2)) != 12.2 {
		t.Fatalf("Ms = %v", Ms(msd(12.2)))
	}
}
