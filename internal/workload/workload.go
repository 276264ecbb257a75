// Package workload generates client traffic against the application,
// reproducing the paper's load generators: closed-loop worker pools (the
// "paralleling workers" of §6 — e.g. 25 workers on each region), open-loop
// Poisson arrivals, request-type mixes (the A:B ratios of Figure 11), and
// phase schedules (the low/medium/high traffic switches of Figure 13).
package workload

import (
	"fmt"
	"time"

	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
)

// Launcher starts one request against a region; app.Executor satisfies it.
type Launcher interface {
	Launch(region string, onDone func(*trace.Trace))
}

// Mix is a weighted choice over regions, e.g. A:B = 30:20. The zero Mix is
// unusable; build with NewMix.
type Mix struct {
	regions []string
	weights []float64
	total   float64
}

// NewMix builds a mix from region->weight. Regions with non-positive
// weight are dropped; the order of the regions slice fixes tie-breaking so
// mixes are deterministic.
func NewMix(regions []string, weights map[string]float64) *Mix {
	m := &Mix{}
	for _, r := range regions {
		w := weights[r]
		if w <= 0 {
			continue
		}
		m.regions = append(m.regions, r)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total == 0 {
		panic("workload: mix with no positive weights")
	}
	return m
}

// Ratio is a convenience for the paper's two-region A:B mixes.
func Ratio(a, b float64) *Mix {
	return NewMix([]string{"A", "B"}, map[string]float64{"A": a, "B": b})
}

// Pick draws a region according to the weights.
func (m *Mix) Pick(r *sim.RNG) string {
	x := r.Float64() * m.total
	for i, w := range m.weights {
		x -= w
		if x < 0 {
			return m.regions[i]
		}
	}
	return m.regions[len(m.regions)-1]
}

// Regions returns the regions with positive weight, in construction order.
func (m *Mix) Regions() []string { return append([]string(nil), m.regions...) }

// ClosedLoop drives a pool of synchronous workers: each worker launches a
// request, waits for its completion, and immediately launches the next —
// the behaviour of the paper's Python access programs. The pool size can
// be changed at runtime (Figure 13 switches 5/15/25 workers every 60 s).
type ClosedLoop struct {
	eng      *sim.Engine
	launcher Launcher
	rng      *sim.RNG
	mix      *Mix

	target   int // desired workers
	alive    int // workers currently looping
	launched uint64
	stopped  bool

	// doneFn is requestDone, bound once so a worker's launch allocates
	// nothing.
	doneFn func(*trace.Trace)
}

// NewClosedLoop creates a stopped pool; call SetWorkers to start it.
func NewClosedLoop(eng *sim.Engine, l Launcher, rng *sim.RNG, mix *Mix) *ClosedLoop {
	c := &ClosedLoop{eng: eng, launcher: l, rng: rng, mix: mix}
	c.doneFn = c.requestDone
	return c
}

// Launched returns the number of requests started so far.
func (c *ClosedLoop) Launched() uint64 { return c.launched }

// Workers returns the current target pool size.
func (c *ClosedLoop) Workers() int { return c.target }

// SetMix swaps the request mix; in-flight requests are unaffected.
func (c *ClosedLoop) SetMix(m *Mix) { c.mix = m }

// SetWorkers resizes the pool. Growth spawns workers immediately; shrink
// lets excess workers exit after their in-flight request completes.
func (c *ClosedLoop) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	c.target = n
	for c.alive < c.target {
		c.alive++
		c.workerLoop()
	}
	// Shrink handled by workerLoop observing target.
}

// Stop retires all workers after their current requests.
func (c *ClosedLoop) Stop() {
	c.stopped = true
	c.target = 0
}

func (c *ClosedLoop) workerLoop() {
	if c.stopped || c.alive > c.target {
		c.alive--
		return
	}
	region := c.mix.Pick(c.rng)
	c.launched++
	c.launcher.Launch(region, c.doneFn)
}

// requestDone loops the worker that launched the request.
func (c *ClosedLoop) requestDone(*trace.Trace) { c.workerLoop() }

// OpenLoop issues requests as a Poisson process at a settable rate,
// independent of completions — for probing beyond the closed-loop
// saturation point.
type OpenLoop struct {
	eng      *sim.Engine
	launcher Launcher
	rng      *sim.RNG
	mix      *Mix

	rate     float64 // requests per second; 0 pauses
	launched uint64
	running  bool
	epoch    int // invalidates pending arrivals when rate changes
}

// NewOpenLoop creates a paused generator; call SetRate to start.
func NewOpenLoop(eng *sim.Engine, l Launcher, rng *sim.RNG, mix *Mix) *OpenLoop {
	return &OpenLoop{eng: eng, launcher: l, rng: rng, mix: mix}
}

// Launched returns the number of requests started so far.
func (o *OpenLoop) Launched() uint64 { return o.launched }

// Rate returns the current arrival rate in requests/second.
func (o *OpenLoop) Rate() float64 { return o.rate }

// SetRate changes the arrival rate; 0 pauses the generator.
func (o *OpenLoop) SetRate(perSecond float64) {
	if perSecond < 0 {
		perSecond = 0
	}
	o.rate = perSecond
	o.epoch++
	o.running = false
	if o.rate > 0 {
		o.running = true
		// One handler per rate epoch: each arrival draws its region, then
		// schedules the same handler after an exponential gap, so steady
		// arrivals allocate nothing. A handler outliving its epoch (the
		// rate changed or the generator paused) drops out.
		epoch := o.epoch
		var arrive sim.Handler
		arrive = func() {
			if epoch != o.epoch || !o.running {
				return
			}
			region := o.mix.Pick(o.rng)
			o.launched++
			o.launcher.Launch(region, nil)
			o.scheduleAfterGap(arrive)
		}
		o.scheduleAfterGap(arrive)
	}
}

// scheduleAfterGap schedules h after an exponential inter-arrival gap at
// the current rate.
func (o *OpenLoop) scheduleAfterGap(h sim.Handler) {
	mean := time.Duration(float64(time.Second) / o.rate)
	gap := time.Duration(o.rng.Exp(float64(mean)))
	o.eng.Schedule(gap, h)
}

// Phase is one step of a traffic schedule.
type Phase struct {
	// Duration of the phase.
	Duration time.Duration
	// Workers applies to a ClosedLoop (ignored if negative).
	Workers int
	// Mix optionally replaces the mix for the phase (nil keeps current).
	Mix *Mix
}

// Schedule applies phases to the pool one after another starting now, and
// returns the total schedule length. The last phase's settings persist.
func (c *ClosedLoop) Schedule(phases []Phase) time.Duration {
	var at time.Duration
	for _, p := range phases {
		p := p
		c.eng.Schedule(at, func() {
			if p.Mix != nil {
				c.SetMix(p.Mix)
			}
			if p.Workers >= 0 {
				c.SetWorkers(p.Workers)
			}
		})
		if p.Duration < 0 {
			panic(fmt.Sprintf("workload: negative phase duration %v", p.Duration))
		}
		at += p.Duration
	}
	return at
}
