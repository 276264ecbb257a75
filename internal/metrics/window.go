package metrics

import (
	"math"
	"time"
)

// WindowedHistogram is a sliding window of StreamingHistograms: samples
// land in the current sub-histogram, Rotate retires the oldest, and every
// query answers over the union of the live sub-histograms. The telemetry
// sampler rotates one sub-histogram per sampling tick, so the window
// always covers the last len(subs) ticks — "p95 over the last W seconds"
// rather than since the start of the run.
//
// Queries never materialize a merged histogram: quantiles resolve with a
// single cumulative walk that sums bucket counts across sub-histograms on
// the fly, so the steady-state path (Add, Rotate, Stats) is allocation-free.
type WindowedHistogram struct {
	subs []StreamingHistogram
	cur  int
}

// NewWindowedHistogram returns a window of w sub-histograms (minimum 1).
func NewWindowedHistogram(w int) *WindowedHistogram {
	if w < 1 {
		w = 1
	}
	return &WindowedHistogram{subs: make([]StreamingHistogram, w)}
}

// Width returns the window width in sub-histograms.
func (h *WindowedHistogram) Width() int { return len(h.subs) }

// Add records one sample into the current sub-histogram.
func (h *WindowedHistogram) Add(d time.Duration) { h.subs[h.cur].Add(d) }

// Rotate advances the window: the oldest sub-histogram is cleared and
// becomes the new current one. After w rotations a sample has left the
// window entirely.
func (h *WindowedHistogram) Rotate() {
	h.cur = (h.cur + 1) % len(h.subs)
	h.subs[h.cur].Reset()
}

// Count returns the number of samples in the window.
func (h *WindowedHistogram) Count() uint64 {
	var n uint64
	for i := range h.subs {
		n += h.subs[i].count
	}
	return n
}

// Min returns the smallest sample in the window, or 0 when empty.
func (h *WindowedHistogram) Min() time.Duration {
	var min time.Duration
	seen := false
	for i := range h.subs {
		if h.subs[i].count == 0 {
			continue
		}
		if !seen || h.subs[i].min < min {
			min = h.subs[i].min
		}
		seen = true
	}
	return min
}

// Max returns the largest sample in the window, or 0 when empty.
func (h *WindowedHistogram) Max() time.Duration {
	var max time.Duration
	for i := range h.subs {
		if h.subs[i].count > 0 && h.subs[i].max > max {
			max = h.subs[i].max
		}
	}
	return max
}

// Sum returns the exact total of all samples in the window.
func (h *WindowedHistogram) Sum() time.Duration {
	var sum time.Duration
	for i := range h.subs {
		sum += h.subs[i].sum
	}
	return sum
}

// Mean returns the exact arithmetic mean over the window, or 0 when empty.
func (h *WindowedHistogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// maxWindowQuantiles bounds one Quantiles call (p50/p95/p99 plus headroom).
const maxWindowQuantiles = 8

// Quantiles resolves up to maxWindowQuantiles quantiles in one cumulative
// walk, writing out[i] for qs[i]. The result of each quantile is identical
// to merging every sub-histogram into one StreamingHistogram and calling
// its Quantile — the property the unit tests pin — but without building
// the merged histogram. It never allocates.
func (h *WindowedHistogram) Quantiles(qs []float64, out []time.Duration) {
	if len(qs) > maxWindowQuantiles || len(out) < len(qs) {
		panic("metrics: WindowedHistogram.Quantiles called with a bad shape")
	}
	n := h.Count()
	if n == 0 {
		for i := range qs {
			out[i] = 0
		}
		return
	}
	min, max := h.Min(), h.Max()

	// Each quantile interpolates between the order statistics at
	// floor(pos) and ceil(pos); collect the distinct ranks, resolve them
	// all in one walk, then interpolate.
	var ranks [2 * maxWindowQuantiles]uint64
	var vals [2 * maxWindowQuantiles]time.Duration
	nr := 0
	addRank := func(r uint64) {
		for i := 0; i < nr; i++ {
			if ranks[i] == r {
				return
			}
		}
		ranks[nr] = r
		nr++
	}
	for _, q := range qs {
		if q <= 0 || q >= 1 {
			continue
		}
		pos := q * float64(n-1)
		addRank(uint64(math.Floor(pos)))
		addRank(uint64(math.Ceil(pos)))
	}
	if nr > 0 {
		// Insertion-sort the ranks so the walk resolves them in order.
		for i := 1; i < nr; i++ {
			for j := i; j > 0 && ranks[j] < ranks[j-1]; j-- {
				ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		// Every sub-histogram's occupied range lies within the window's
		// [histIndex(min), histIndex(max)], so the walk starts and ends
		// there.
		var cum uint64
		next := 0
	walk:
		for i, hi := histIndex(uint64(min)), histIndex(uint64(max)); i <= hi; i++ {
			for j := range h.subs {
				cum += h.subs[j].counts[i]
			}
			for next < nr && cum > ranks[next] {
				// Same resolution as StreamingHistogram.valueAtRank: the
				// top of the bucket, clamped to the observed maximum.
				top := time.Duration(histLow(i) + histWidth(i) - 1)
				if top > max {
					top = max
				}
				vals[next] = top
				next++
				if next == nr {
					break walk
				}
			}
		}
		for ; next < nr; next++ {
			vals[next] = max
		}
	}
	valueAt := func(r uint64) time.Duration {
		for i := 0; i < nr; i++ {
			if ranks[i] == r {
				return vals[i]
			}
		}
		return max
	}
	for i, q := range qs {
		switch {
		case q <= 0:
			out[i] = min
		case q >= 1:
			out[i] = max
		default:
			pos := q * float64(n-1)
			lo := uint64(math.Floor(pos))
			hi := uint64(math.Ceil(pos))
			vlo := valueAt(lo)
			if lo == hi {
				out[i] = vlo
				continue
			}
			vhi := valueAt(hi)
			frac := pos - float64(lo)
			out[i] = vlo + time.Duration(frac*float64(vhi-vlo))
		}
	}
}

// Quantile answers one quantile over the window; see Quantiles.
func (h *WindowedHistogram) Quantile(q float64) time.Duration {
	var qs [1]float64
	var out [1]time.Duration
	qs[0] = q
	h.Quantiles(qs[:], out[:])
	return out[0]
}

// WindowState is a compact, immutable copy of a WindowedHistogram for
// snapshot/restore: each sub-histogram's exact scalars plus only its
// occupied buckets, the range [histIndex(min), histIndex(max)] outside
// which every count is zero. A window of ten ~15 KiB sub-histograms
// typically saves in a few hundred bytes.
type WindowState struct {
	subs   []subState
	counts []uint64 // each sub-histogram's occupied buckets, back to back
	cur    int
}

type subState struct {
	count    uint64
	sum      time.Duration
	min, max time.Duration
}

// Save returns the window's compact state.
func (h *WindowedHistogram) Save() *WindowState {
	n := 0
	for i := range h.subs {
		lo, hi := h.subs[i].occupied()
		n += hi - lo + 1
	}
	s := &WindowState{subs: make([]subState, len(h.subs)), counts: make([]uint64, 0, n), cur: h.cur}
	for i := range h.subs {
		sh := &h.subs[i]
		s.subs[i] = subState{count: sh.count, sum: sh.sum, min: sh.min, max: sh.max}
		lo, hi := sh.occupied()
		s.counts = append(s.counts, sh.counts[lo:hi+1]...)
	}
	return s
}

// Load rewinds the window to a saved state without allocating, clearing
// and writing only occupied buckets. It panics if the widths differ.
func (h *WindowedHistogram) Load(s *WindowState) {
	if len(h.subs) != len(s.subs) {
		panic("metrics: WindowedHistogram.Load with mismatched widths")
	}
	off := 0
	for i := range h.subs {
		sh := &h.subs[i]
		sh.Reset()
		st := s.subs[i]
		sh.count, sh.sum, sh.min, sh.max = st.count, st.sum, st.min, st.max
		lo, hi := sh.occupied()
		off += copy(sh.counts[lo:hi+1], s.counts[off:])
	}
	h.cur = s.cur
}

// MergedInto folds every live sub-histogram into dst (after resetting it)
// — the reference the fused walk is tested against, and a convenience for
// offline consumers that want a full StreamingHistogram of the window.
func (h *WindowedHistogram) MergedInto(dst *StreamingHistogram) {
	dst.Reset()
	for i := range h.subs {
		dst.Merge(&h.subs[i])
	}
}
