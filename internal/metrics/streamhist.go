package metrics

import (
	"math"
	"math/bits"
	"time"
)

// The streaming histogram is the bounded-memory counterpart of
// LatencyStats for accumulations where retaining raw samples would be
// O(requests × services): log-spaced buckets in the HDR-histogram family,
// each power of two split into histSubCount linear sub-buckets, so any
// quantile is answered within one bucket width (≤ 1/histSubCount ≈ 3.1%
// relative error) from a fixed ~15 KiB footprint. The critical-path blame
// accumulator records one per-request total per touched service through
// it; Add is allocation-free.

const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histBuckets covers every non-negative int64 nanosecond value: the
	// 2*histSubCount exact buckets below 2*histSubCount, plus histSubCount
	// sub-buckets for each of the remaining 63-histSubBits-1 octaves.
	histBuckets = (63 - histSubBits + 1) * histSubCount
)

// histIndex maps a non-negative value to its bucket.
func histIndex(n uint64) int {
	if n < histSubCount {
		return int(n)
	}
	exp := uint(bits.Len64(n)) - 1 - histSubBits
	return int(exp)<<histSubBits + int(n>>exp)
}

// histLow returns the smallest value mapping to bucket i.
func histLow(i int) uint64 {
	if i < histSubCount {
		return uint64(i)
	}
	exp := uint(i>>histSubBits) - 1
	mant := uint64(i) - uint64(exp)<<histSubBits
	return mant << exp
}

// histWidth returns how many distinct values bucket i covers.
func histWidth(i int) uint64 {
	if i < 2*histSubCount {
		return 1
	}
	return 1 << (uint(i>>histSubBits) - 1)
}

// BucketWidth returns the width of the streaming-histogram bucket holding
// d — the resolution StreamingHistogram.Quantile promises relative to the
// exact sample quantile at that value.
func BucketWidth(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	return time.Duration(histWidth(histIndex(uint64(d))))
}

// StreamingHistogram accumulates duration samples into fixed log-spaced
// buckets. Unlike LatencyStats it never retains samples: memory is
// constant, Add never allocates, and Quantile answers within one bucket
// width of the exact (sim.Quantile) result. Min, max, count and sum are
// tracked exactly, so Quantile(0), Quantile(1) and Mean are exact. The
// zero value is an empty, ready-to-use histogram.
type StreamingHistogram struct {
	counts   [histBuckets]uint64
	count    uint64
	sum      time.Duration
	min, max time.Duration
}

// Add records one sample. Negative durations clamp to zero.
func (h *StreamingHistogram) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.counts[histIndex(uint64(d))]++
}

// Count returns the number of recorded samples.
func (h *StreamingHistogram) Count() uint64 { return h.count }

// Sum returns the exact total of all samples.
func (h *StreamingHistogram) Sum() time.Duration { return h.sum }

// Min returns the exact smallest sample, or 0 when empty.
func (h *StreamingHistogram) Min() time.Duration { return h.min }

// Max returns the exact largest sample, or 0 when empty.
func (h *StreamingHistogram) Max() time.Duration { return h.max }

// Mean returns the exact arithmetic mean, or 0 when empty.
func (h *StreamingHistogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// occupied returns the bucket range [lo, hi] that can hold samples:
// histIndex is monotone, so every sample lies in [histIndex(min),
// histIndex(max)] and every bucket outside the range is zero. An empty
// histogram returns an empty range (hi < lo).
func (h *StreamingHistogram) occupied() (lo, hi int) {
	if h.count == 0 {
		return 0, -1
	}
	return histIndex(uint64(h.min)), histIndex(uint64(h.max))
}

// Reset returns the histogram to its empty state without releasing its
// (entirely inline) storage, so a recycled histogram records again with
// zero allocations — the telemetry layer rotates sliding-window
// sub-histograms through Reset every sampling tick. Only the occupied
// buckets are cleared; the rest are already zero.
func (h *StreamingHistogram) Reset() {
	lo, hi := h.occupied()
	clear(h.counts[lo : hi+1])
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Quantile returns the q-quantile (q in [0,1]) with the same linear
// interpolation between order statistics as sim.Quantile, each order
// statistic resolved to the top of its bucket (clamped to the observed
// max). The result never undershoots the exact sample quantile and
// overshoots by less than the width of the upper order statistic's
// bucket.
func (h *StreamingHistogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	pos := q * float64(h.count-1)
	lo := uint64(math.Floor(pos))
	hi := uint64(math.Ceil(pos))
	vlo := h.valueAtRank(lo)
	if lo == hi {
		return vlo
	}
	vhi := h.valueAtRank(hi)
	frac := pos - float64(lo)
	return vlo + time.Duration(frac*float64(vhi-vlo))
}

// valueAtRank returns an upper bound for the rank-th smallest sample
// (0-based): the top of the bucket holding it, clamped to the observed
// maximum — at most one bucket width above the exact order statistic.
// The walk covers only the occupied buckets.
func (h *StreamingHistogram) valueAtRank(rank uint64) time.Duration {
	var cum uint64
	lo, hi := h.occupied()
	for i := lo; i <= hi; i++ {
		cum += h.counts[i]
		if cum > rank {
			top := time.Duration(histLow(i) + histWidth(i) - 1)
			if top > h.max {
				top = h.max
			}
			return top
		}
	}
	return h.max
}
