package workload

import (
	"fmt"
	"math"
	"time"
)

// Point is one setpoint of a traffic profile: at offset At from the run
// start, region's target becomes Rate — requests/second for open-loop
// arrivals, a worker count for closed-loop pools.
type Point struct {
	At     time.Duration
	Region string
	Rate   float64
}

// Profile is a piecewise-constant per-region traffic schedule: an ordered
// list of setpoints a Driver applies as simulation time passes. Profiles
// are immutable once built (the engine snapshots them by pointer), come
// from the generator registry (Lookup) or the trace codec (ParseTrace),
// and round-trip losslessly through WriteTrace/ParseTrace.
type Profile struct {
	// Name is the generator or trace the profile came from.
	Name   string
	Points []Point
}

// Validate reports the first structural problem: no points, a negative or
// non-finite time or rate, an empty region, out-of-order times, or a
// duplicate (time, region) key. ParseTrace accepts exactly the valid
// profiles whose regions the CSV encoding carries (no comma, line break,
// surrounding space or invalid UTF-8), so any such profile can be
// serialized and replayed.
func (p *Profile) Validate() error {
	if p == nil || len(p.Points) == 0 {
		return fmt.Errorf("workload: profile has no points")
	}
	seen := make(map[string]bool, len(p.Points))
	var prev time.Duration
	for i, pt := range p.Points {
		if pt.At < 0 {
			return fmt.Errorf("workload: point %d time %v must not be negative", i, pt.At)
		}
		if pt.Region == "" {
			return fmt.Errorf("workload: point %d has an empty region", i)
		}
		if pt.Rate < 0 || math.IsNaN(pt.Rate) || math.IsInf(pt.Rate, 0) {
			return fmt.Errorf("workload: point %d rate %v must be finite and non-negative", i, pt.Rate)
		}
		if pt.At < prev {
			return fmt.Errorf("workload: point %d time %v precedes point %d time %v (points must be time-sorted)",
				i, pt.At, i-1, prev)
		}
		key := fmt.Sprintf("%d/%s", pt.At, pt.Region)
		if seen[key] {
			return fmt.Errorf("workload: duplicate setpoint for region %q at %v", pt.Region, pt.At)
		}
		seen[key] = true
		prev = pt.At
	}
	return nil
}

// Regions returns the distinct regions the profile drives, in first-
// appearance order.
func (p *Profile) Regions() []string {
	seen := map[string]bool{}
	var out []string
	for _, pt := range p.Points {
		if !seen[pt.Region] {
			seen[pt.Region] = true
			out = append(out, pt.Region)
		}
	}
	return out
}

// Length returns the time of the last setpoint — the minimum run length
// needed for the whole schedule to take effect. The engine extends a run
// to at least this, the way phase schedules already do.
func (p *Profile) Length() time.Duration {
	if len(p.Points) == 0 {
		return 0
	}
	return p.Points[len(p.Points)-1].At
}
