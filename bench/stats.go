package bench

import "sort"

// Series is every sample of one metric in one run plus its quartiles.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	N      int       `json:"n"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// newSeries summarizes values (which it keeps in the order measured).
func newSeries(unit string, values ...float64) *Series {
	q1, med, q3 := quartiles(values)
	return &Series{Unit: unit, Values: values, N: len(values), Q1: q1, Median: med, Q3: q3}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same "exclusive" method as Python's statistics.quantiles(xs, n=4), so
// spreads computed here match the ones an outside check computes from the
// same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		// j is clamped to [1, n-1] before delta, as Python does.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median of xs (mean of the two middle values for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
