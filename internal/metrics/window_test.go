package metrics

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// fillWindow distributes samples across rotations: rotate every per
// samples, keeping only the most recent width*per samples in the window.
func fillWindow(w *WindowedHistogram, samples []time.Duration, per int) {
	for i, d := range samples {
		if i > 0 && i%per == 0 {
			w.Rotate()
		}
		w.Add(d)
	}
}

// liveWindow returns the suffix of samples still covered by the window
// after fillWindow(w, samples, per).
func liveWindow(samples []time.Duration, width, per int) []time.Duration {
	if len(samples) == 0 {
		return nil
	}
	// The current sub-histogram holds the last partial batch; the other
	// width-1 subs hold the preceding full batches.
	last := len(samples) % per
	if last == 0 {
		last = per
	}
	keep := last + (width-1)*per
	if keep > len(samples) {
		keep = len(samples)
	}
	return samples[len(samples)-keep:]
}

// TestWindowedHistogramMatchesMergedReference pins the fused-walk
// contract: every quantile and aggregate over the window is identical to
// merging the live sub-histograms into one StreamingHistogram and asking
// it — across corpora, window widths, and rotation cadences, including
// windows that have fully wrapped and dropped old samples.
func TestWindowedHistogramMatchesMergedReference(t *testing.T) {
	qs := []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	for name, samples := range corpora() {
		for _, width := range []int{1, 2, 4, 7} {
			for _, per := range []int{1, 3, 50, 999} {
				w := NewWindowedHistogram(width)
				fillWindow(w, samples, per)

				var ref StreamingHistogram
				w.MergedInto(&ref)

				// Cross-check MergedInto itself against a histogram built
				// directly from the samples that should still be live.
				var direct StreamingHistogram
				for _, d := range liveWindow(samples, width, per) {
					direct.Add(d)
				}
				if ref != direct {
					t.Fatalf("%s w=%d per=%d: merged window differs from directly-built live suffix",
						name, width, per)
				}

				if w.Count() != ref.Count() || w.Sum() != ref.Sum() ||
					w.Min() != ref.Min() || w.Max() != ref.Max() || w.Mean() != ref.Mean() {
					t.Fatalf("%s w=%d per=%d: aggregates %d/%v/%v/%v/%v vs merged %d/%v/%v/%v/%v",
						name, width, per,
						w.Count(), w.Sum(), w.Min(), w.Max(), w.Mean(),
						ref.Count(), ref.Sum(), ref.Min(), ref.Max(), ref.Mean())
				}

				var out [maxWindowQuantiles]time.Duration
				w.Quantiles(qs, out[:])
				for i, q := range qs {
					if want := ref.Quantile(q); out[i] != want {
						t.Errorf("%s w=%d per=%d q=%v: fused %v vs merged %v",
							name, width, per, q, out[i], want)
					}
					if got := w.Quantile(q); got != out[i] {
						t.Errorf("%s w=%d per=%d q=%v: single %v vs batch %v",
							name, width, per, q, got, out[i])
					}
				}
			}
		}
	}
}

// TestWindowedHistogramForgets pins the sliding semantics: after width
// rotations, earlier samples no longer influence any statistic.
func TestWindowedHistogramForgets(t *testing.T) {
	w := NewWindowedHistogram(3)
	w.Add(time.Hour) // an outlier that must age out
	for i := 0; i < 3; i++ {
		w.Rotate()
		w.Add(time.Millisecond)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d, want 3", w.Count())
	}
	if got := w.Max(); got != time.Millisecond {
		t.Fatalf("max = %v: the outlier should have aged out", got)
	}
	if got := w.Quantile(1); got != time.Millisecond {
		t.Fatalf("q1 = %v, want 1ms", got)
	}
}

// TestWindowedHistogramEmpty covers the zero-sample paths.
func TestWindowedHistogramEmpty(t *testing.T) {
	w := NewWindowedHistogram(4)
	if w.Count() != 0 || w.Sum() != 0 || w.Min() != 0 || w.Max() != 0 || w.Mean() != 0 {
		t.Fatal("empty window must report zeros")
	}
	qs := []float64{0, 0.5, 1}
	out := []time.Duration{1, 1, 1}
	w.Quantiles(qs, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("q=%v on empty window = %v, want 0", qs[i], v)
		}
	}
	w.Rotate() // rotating an empty window is fine
	if w.Count() != 0 {
		t.Fatal("rotate changed an empty window")
	}
	if NewWindowedHistogram(0).Width() != 1 {
		t.Fatal("width clamps to at least 1")
	}
}

// TestWindowedHistogramHotPathZeroAllocs pins the telemetry sampling
// claim: recording, rotating and querying the window never allocate.
func TestWindowedHistogramHotPathZeroAllocs(t *testing.T) {
	w := NewWindowedHistogram(5)
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		w.Add(time.Duration(rng.Exp(float64(5 * time.Millisecond))))
	}
	qs := []float64{0.5, 0.95, 0.99}
	var out [3]time.Duration
	d := time.Millisecond
	allocs := testing.AllocsPerRun(500, func() {
		d += 191 * time.Microsecond
		w.Add(d)
		w.Quantiles(qs, out[:])
		w.Rotate()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %.3f objects/op, want 0", allocs)
	}
}

// TestStreamingHistogramResetMerge covers the two methods the window is
// built on directly.
func TestStreamingHistogramResetMerge(t *testing.T) {
	var a, b, merged StreamingHistogram
	samples := corpora()["lognormal"]
	for i, d := range samples {
		if i%2 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
		merged.Add(d)
	}
	got := a // copy, then fold b in
	got.Merge(&b)
	if got != merged {
		t.Fatal("Merge(a, b) differs from adding every sample to one histogram")
	}
	var empty StreamingHistogram
	got.Merge(&empty)
	if got != merged {
		t.Fatal("merging an empty histogram must be a no-op")
	}
	empty.Merge(&merged)
	if empty != merged {
		t.Fatal("merging into an empty histogram must copy the source")
	}
	got.Reset()
	if got != (StreamingHistogram{}) {
		t.Fatal("Reset must restore the zero value")
	}
}

// TestWindowedHistogramSaveLoad pins the snapshot contract of Save/Load:
// Load rewinds a diverged window to exactly the saved state (every
// sub-histogram bucket for bucket, so later quantiles and rotations match
// too), the state shares nothing with the window — adds and rotations
// after Save never show in it — and restores repeatedly, and it holds
// only occupied buckets.
func TestWindowedHistogramSaveLoad(t *testing.T) {
	samples := corpora()["lognormal"]
	w := NewWindowedHistogram(4)
	fillWindow(w, samples, 37)
	want := NewWindowedHistogram(4) // the same window, never saved
	fillWindow(want, samples, 37)
	st := w.Save()
	if n := len(st.counts); n == 0 || n >= histBuckets {
		t.Fatalf("saved %d buckets for a 4-wide window, want occupied buckets only (0 < n < %d)", n, histBuckets)
	}

	for round := 0; round < 2; round++ {
		// Diverge over a wider range (new buckets on both sides), with a
		// full wraparound.
		for i := 0; i < 50; i++ {
			if i%10 == 0 {
				w.Rotate()
			}
			w.Add(time.Duration(i%3) * time.Hour)
		}
		w.Load(st)
		if w.cur != want.cur {
			t.Fatalf("round %d: cur = %d, want %d", round, w.cur, want.cur)
		}
		for i := range w.subs {
			if w.subs[i] != want.subs[i] {
				t.Fatalf("round %d: sub-histogram %d differs from the saved window", round, i)
			}
		}
	}

	empty := NewWindowedHistogram(4)
	w.Load(empty.Save())
	for i := range w.subs {
		if w.subs[i] != (StreamingHistogram{}) {
			t.Fatalf("loading an empty window left sub-histogram %d non-zero", i)
		}
	}

	// Width mismatch is a programming error and must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("Load with mismatched widths did not panic")
		}
	}()
	w.Load(NewWindowedHistogram(2).Save())
}
