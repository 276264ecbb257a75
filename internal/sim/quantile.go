package sim

import (
	"math"
	"time"
)

// Quantile returns the q-quantile (0 <= q <= 1) of a sorted duration slice
// using linear interpolation. It is the single definition of "percentile"
// shared by every experiment so that paper comparisons are consistent.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}
