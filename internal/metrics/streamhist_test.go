package metrics

import (
	"math"
	"sort"
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// corpora returns the equivalence-test corpora: shapes the blame
// accumulator actually sees (sub-millisecond to second-scale, heavy
// tails, duplicates) plus adversarial edges (empty, singleton, two-point
// spread across many octaves).
func corpora() map[string][]time.Duration {
	out := map[string][]time.Duration{
		"empty":     nil,
		"singleton": {1500 * time.Microsecond},
		"constant":  {time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond},
		"two-point": {time.Microsecond, time.Second},
		"tiny-ints": {0, 1, 2, 3, 5, 30, 31, 32, 33, 64},
	}
	rng := sim.NewRNG(42)
	var lognormal []time.Duration
	for i := 0; i < 5000; i++ {
		lognormal = append(lognormal,
			time.Duration(rng.Draw(sim.NewLogNormal(float64(4*time.Millisecond), float64(3*time.Millisecond)))))
	}
	out["lognormal"] = lognormal
	var exponential []time.Duration
	for i := 0; i < 2000; i++ {
		exponential = append(exponential, time.Duration(rng.Exp(float64(10*time.Millisecond))))
	}
	out["exponential"] = exponential
	return out
}

// TestStreamingHistogramQuantileEquivalence pins the histogram's core
// contract: for every corpus and quantile, the streamed answer is within
// one bucket width of the exact sim.Quantile answer (and never below it).
func TestStreamingHistogramQuantileEquivalence(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for name, samples := range corpora() {
		var h StreamingHistogram
		for _, d := range samples {
			h.Add(d)
		}
		sorted := append([]time.Duration(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range qs {
			exact := sim.Quantile(sorted, q)
			got := h.Quantile(q)
			// The bound follows the interpolation: each of the two order
			// statistics is resolved to the top of its bucket, so the
			// overshoot is below the upper order statistic's bucket width.
			var tol time.Duration
			if len(sorted) > 0 {
				hi := int(math.Ceil(q * float64(len(sorted)-1)))
				tol = BucketWidth(sorted[hi])
			}
			if diff := got - exact; diff < 0 || diff > tol {
				t.Errorf("%s q=%v: streamed %v vs exact %v (diff %v, tolerance %v)",
					name, q, got, exact, got-exact, tol)
			}
		}
	}
}

// TestStreamingHistogramMatchesLatencyStats cross-checks against the
// LatencyStats percentiles the experiments report.
func TestStreamingHistogramMatchesLatencyStats(t *testing.T) {
	samples := corpora()["lognormal"]
	stats := FromSamples(samples)
	var h StreamingHistogram
	for _, d := range samples {
		h.Add(d)
	}
	for _, q := range []float64{0.90, 0.95, 0.99} {
		exact := stats.Percentile(q)
		got := h.Quantile(q)
		if diff := got - exact; diff < 0 || float64(diff) > float64(exact)/float64(histSubCount)+1 {
			t.Errorf("q=%v: streamed %v vs LatencyStats %v", q, got, exact)
		}
	}
	if h.Min() != stats.Min() || h.Max() != stats.Max() {
		t.Errorf("min/max: streamed %v/%v vs exact %v/%v", h.Min(), h.Max(), stats.Min(), stats.Max())
	}
	if h.Mean() != stats.Mean() {
		t.Errorf("mean: streamed %v vs exact %v", h.Mean(), stats.Mean())
	}
	if int(h.Count()) != stats.Count() {
		t.Errorf("count: streamed %d vs exact %d", h.Count(), stats.Count())
	}
}

// TestStreamingHistogramBasics covers the exact bookkeeping and the
// negative-sample clamp.
func TestStreamingHistogramBasics(t *testing.T) {
	var h StreamingHistogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("zero histogram must report zeros")
	}
	h.Add(-time.Second) // clamps to 0
	h.Add(3 * time.Millisecond)
	if h.Min() != 0 || h.Max() != 3*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != 3*time.Millisecond || h.Count() != 2 {
		t.Fatalf("sum/count = %v/%d", h.Sum(), h.Count())
	}
}

// TestHistBucketLayout pins the index/low/width triple: indexes are
// monotone, every bucket's low maps back to its index, and widths bound
// the gap to the next bucket.
func TestHistBucketLayout(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		low := histLow(i)
		if histIndex(low) != i {
			t.Fatalf("histIndex(histLow(%d)) = %d", i, histIndex(low))
		}
		top := low + histWidth(i) - 1
		if histIndex(top) != i {
			t.Fatalf("bucket %d: top %d maps to %d", i, top, histIndex(top))
		}
		if i+1 < histBuckets && histIndex(top+1) != i+1 {
			t.Fatalf("bucket %d: top+1 maps to %d, want %d", i, histIndex(top+1), i+1)
		}
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("histIndex(MaxInt64) = %d, want %d", got, histBuckets-1)
	}
}

// TestStreamingHistogramAddZeroAllocs pins the bench_gates.json claim:
// recording a sample is allocation-free.
func TestStreamingHistogramAddZeroAllocs(t *testing.T) {
	h := new(StreamingHistogram)
	d := time.Millisecond
	allocs := testing.AllocsPerRun(1000, func() {
		d += 137 * time.Microsecond
		h.Add(d)
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %.3f objects/op, want 0", allocs)
	}
}
