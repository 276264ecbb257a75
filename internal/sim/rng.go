// Package sim provides a deterministic discrete-event simulation engine:
// a logical clock, an event calendar, seedable random-number streams with
// the exponential and log-normal draws the workload and service models
// use, and the quantile definition every experiment shares.
//
// Everything in this repository that involves chance draws from a sim.RNG
// stream derived from a single root seed, so every experiment, test and
// benchmark is reproducible bit-for-bit.
package sim

import "math"

// splitMix64 advances the SplitMix64 state and returns the next value.
// SplitMix64 is used both to seed sub-streams and as the core generator:
// it is tiny, passes BigCrush, and needs no allocation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a deterministic random number stream. The zero value is NOT valid;
// obtain streams from NewRNG or RNG.Stream so that seeds are derived
// reproducibly.
type RNG struct {
	state uint64
	// spare holds a cached second normal variate from the Box-Muller pair.
	spare    float64
	hasSpare bool
	// children registers streams derived via Stream, in derivation order,
	// so CursorDigest can fold the position of the whole stream tree. All
	// derivations happen at build time, so the registry is stable during a
	// run and survives state Restore (which rewinds values, not structure).
	children []*RNG
}

// NewRNG returns a stream seeded from seed. Two RNGs with the same seed
// produce identical sequences.
func NewRNG(seed uint64) *RNG {
	// Scramble the seed once so that small consecutive seeds (0, 1, 2...)
	// still yield well-separated streams.
	s := seed
	splitMix64(&s)
	return &RNG{state: s}
}

// Stream derives a named child stream from r without disturbing r's own
// sequence more than one draw. Deriving the same name twice from the same
// parent state yields different streams; derive all children up front.
func (r *RNG) Stream(name string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	child := NewRNG(r.Uint64() ^ h)
	r.children = append(r.children, child)
	return child
}

// CursorDigest folds the position of this stream and every stream ever
// derived from it (recursively, in derivation order) into one FNV-1a
// hash. Two RNG trees with equal digests will produce identical future
// draws from every stream — the property that makes the run ledger's
// divergence detection sound: state and events can momentarily agree
// between two runs while their RNG cursors already differ, and the
// cursor digest catches that tick, not the later one where the drift
// becomes visible.
func (r *RNG) CursorDigest() uint64 {
	h := uint64(14695981039346656037)
	r.foldCursor(&h)
	return h
}

func (r *RNG) foldCursor(h *uint64) {
	foldWord(h, r.state)
	foldWord(h, math.Float64bits(r.spare))
	if r.hasSpare {
		foldWord(h, 1)
	} else {
		foldWord(h, 0)
	}
	for _, c := range r.children {
		c.foldCursor(h)
	}
}

// foldWord folds one 64-bit word into the FNV-1a accumulator, low byte
// first.
func foldWord(h *uint64, v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= v & 0xff
		*h *= 1099511628211
		v >>= 8
	}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	return splitMix64(&r.state)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normal variate with the given mean and standard deviation
// using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + stddev*u*m
}

// LogNormalDist is a log-normal distribution with its underlying normal's
// parameters computed once, so a hot path that draws from the same
// distribution many times (a call edge's execution time) pays for the
// logarithms and the square root at build time instead of per draw.
type LogNormalDist struct {
	mu, sigma float64
	// positive is false for a non-positive mean: Draw returns 0 without
	// consuming the stream.
	positive bool
}

// NewLogNormal precomputes the log-normal distribution parameterised by the
// mean and standard deviation OF THE RESULTING variate (not of the
// underlying normal), which is the natural way to express "mean service
// time 5 ms with 20% spread".
func NewLogNormal(mean, stddev float64) LogNormalDist {
	if mean <= 0 {
		return LogNormalDist{}
	}
	cv2 := (stddev / mean) * (stddev / mean)
	sigma2 := math.Log(1 + cv2)
	mu := math.Log(mean) - sigma2/2
	return LogNormalDist{mu: mu, sigma: math.Sqrt(sigma2), positive: true}
}

// Params returns the underlying normal's mean and standard deviation (0
// and 0 for a non-positive mean, whose draws are 0).
func (d LogNormalDist) Params() (mu, sigma float64) { return d.mu, d.sigma }

// Draw returns a variate of d: exp of one normal variate, or 0 without
// consuming the stream when d's mean is not positive.
func (r *RNG) Draw(d LogNormalDist) float64 {
	if !d.positive {
		return 0
	}
	return math.Exp(r.Norm(d.mu, d.sigma))
}
