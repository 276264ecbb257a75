package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestExponentialMeanConverges(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	want := float64(10 * time.Millisecond)
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(want)
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("exp sample mean %.3gns, want within 2%% of %.3gns", got, want)
	}
}

func TestLogNormalMeanAndSpread(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Draw(NewLogNormal(float64(20*time.Millisecond), float64(4*time.Millisecond)))
		if v < 0 {
			t.Fatal("negative lognormal sample")
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-float64(20*time.Millisecond))/float64(20*time.Millisecond) > 0.02 {
		t.Fatalf("lognormal mean %.4g, want ~20ms", mean)
	}
	if math.Abs(std-float64(4*time.Millisecond))/float64(4*time.Millisecond) > 0.05 {
		t.Fatalf("lognormal stddev %.4g, want ~4ms", std)
	}
}

// refLogNormal is the log-normal draw as it was before distributions were
// precomputed: the reference every precomputed draw must reproduce bit
// for bit, consuming the same stream positions.
func refLogNormal(r *RNG, mean, stddev float64) float64 {
	if mean <= 0 {
		return 0
	}
	cv2 := (stddev / mean) * (stddev / mean)
	sigma2 := math.Log(1 + cv2)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(r.Norm(mu, math.Sqrt(sigma2)))
}

// TestDrawMatchesLogNormalReference requires Draw over a precomputed
// distribution to return exactly the reference's bits and to leave the
// stream where the reference leaves it, over random (mean,
// stddev) pairs plus the edge cases: a non-positive mean draws nothing,
// and a zero deviation still consumes its normal variate.
func TestDrawMatchesLogNormalReference(t *testing.T) {
	type input struct{ mean, stddev float64 }
	inputs := []input{
		{0, 1}, {-5e6, 1e5}, {math.Copysign(0, -1), 0}, {1, 0}, {5e6, 0},
		{1e-300, 1e-300}, {1e300, 1e299}, {2e6, 2e7},
	}
	pick := NewRNG(3)
	for i := 0; i < 2000; i++ {
		mean := math.Exp(pick.Float64()*40 - 5) // 7e-3 .. 2e15
		if pick.Intn(8) == 0 {
			mean = -mean
		}
		inputs = append(inputs, input{mean, mean * pick.Float64() * 2})
	}
	for i, in := range inputs {
		seed := uint64(i)
		got, want := NewRNG(seed), NewRNG(seed)
		d := NewLogNormal(in.mean, in.stddev)
		// Three draws, so both halves of a Box-Muller pair are reached.
		for k := 0; k < 3; k++ {
			g, w := got.Draw(d), refLogNormal(want, in.mean, in.stddev)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("LogNormal(%v, %v) draw %d: Draw %v, reference %v", in.mean, in.stddev, k, g, w)
			}
		}
		if got.CursorDigest() != want.CursorDigest() {
			t.Fatalf("LogNormal(%v, %v): stream cursors diverged from the reference", in.mean, in.stddev)
		}
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{10, 20, 30, 40, 50}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.75, 40}, {0.9, 46},
	}
	for _, c := range cases {
		if got := Quantile(ds, c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	// Property: for any sample set, quantiles are monotone in q and bounded
	// by min/max.
	f := func(raw []int16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			d := time.Duration(v)
			if d < 0 {
				d = -d
			}
			ds[i] = d
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		lo := float64(qa%101) / 100
		hi := float64(qb%101) / 100
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := Quantile(ds, lo), Quantile(ds, hi)
		return a <= b && a >= ds[0] && b <= ds[len(ds)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGStreamsAreIndependent(t *testing.T) {
	root := NewRNG(99)
	a := root.Stream("a")
	b := root.Stream("b")
	equal := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 1 {
		t.Fatalf("streams overlap: %d equal draws of 64", equal)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(123)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(77)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("norm mean %v, want ~5", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("norm std %v, want ~2", std)
	}
}
