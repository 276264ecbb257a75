package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"servicefridge/internal/sim"
)

// Traffic-shape registry, mirroring the scheme registry in
// internal/schemes: built-in generators self-register in init, extensions
// add shapes with one Register call, and CLIs/scenarios select them by
// name. The reserved name "trace" is the codec-backed replay pseudo-shape
// (see ParseTrace) and cannot be registered.

// TraceProfile is the reserved profile name for trace replay.
const TraceProfile = "trace"

// GenInput parameterizes a traffic generator. Rates carries the base
// per-region level the shape modulates; every listed region must have a
// positive entry. Seed feeds the shapes that draw randomness (all draws go
// through sim.NewRNG, so equal inputs yield equal profiles).
type GenInput struct {
	Regions []string
	Rates   map[string]float64
	Horizon time.Duration
	Seed    uint64
}

func (in GenInput) validate() error {
	if len(in.Regions) == 0 {
		return fmt.Errorf("workload: generator input has no regions")
	}
	for _, r := range in.Regions {
		rate := in.Rates[r]
		if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return fmt.Errorf("workload: base rate %v for region %q must be positive and finite", rate, r)
		}
	}
	if in.Horizon <= 0 {
		return fmt.Errorf("workload: horizon %v must be positive", in.Horizon)
	}
	return nil
}

// Generator builds a traffic profile from the input parameters.
type Generator func(GenInput) (*Profile, error)

// Registration describes one traffic shape.
type Registration struct {
	// Name is the registry key ("diurnal", "flash-crowd", ...).
	Name string
	// New builds the profile.
	New Generator
}

var (
	regMu    sync.RWMutex
	registry = map[string]Registration{}
)

// Register adds a traffic shape to the registry. It panics on a duplicate,
// reserved or incomplete registration — registries are assembled in init
// functions where failing fast is the only useful behaviour.
func Register(r Registration) {
	if r.Name == "" || r.New == nil {
		panic("workload: Register needs a Name and a New function")
	}
	if r.Name == TraceProfile {
		panic(fmt.Sprintf("workload: profile name %q is reserved for trace replay", TraceProfile))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("workload: profile %q registered twice", r.Name))
	}
	registry[r.Name] = r
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Names returns the registered shape names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// round3 keeps generated rates at milli-request resolution so traces stay
// readable; shortest-form float encoding round-trips them exactly.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// roundMS keeps generated times at millisecond resolution, the trace
// codec's exact-round-trip granularity.
func roundMS(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

func init() {
	// Constant per-region base rate from t=0.
	Register(Registration{
		Name: "steady",
		New: func(in GenInput) (*Profile, error) {
			if err := in.validate(); err != nil {
				return nil, err
			}
			p := &Profile{Name: "steady"}
			for _, r := range in.Regions {
				p.Points = append(p.Points, Point{At: 0, Region: r, Rate: round3(in.Rates[r])})
			}
			return p, p.Validate()
		},
	})
	// 24-step day curve (0.35x night trough to 1x midday peak), regions
	// phase-shifted by 1/8 day.
	Register(Registration{
		Name: "diurnal",
		New: func(in GenInput) (*Profile, error) {
			if err := in.validate(); err != nil {
				return nil, err
			}
			const steps = 24
			p := &Profile{Name: "diurnal"}
			for i := 0; i < steps; i++ {
				at := roundMS(time.Duration(i) * in.Horizon / steps)
				for ri, r := range in.Regions {
					// Shift each region by 3 steps (1/8 day) so cross-region
					// peaks are staggered, not synchronized.
					x := float64(i+3*ri) / steps
					factor := 0.35 + 0.325*(1-math.Cos(2*math.Pi*x))
					p.Points = append(p.Points, Point{At: at, Region: r, Rate: round3(in.Rates[r] * factor)})
				}
			}
			return p, p.Validate()
		},
	})
	// Steady base with a 4x spike on the first region at 40% of the
	// horizon, stepping back down.
	Register(Registration{
		Name: "flash-crowd",
		New: func(in GenInput) (*Profile, error) {
			if err := in.validate(); err != nil {
				return nil, err
			}
			p := &Profile{Name: "flash-crowd"}
			for _, r := range in.Regions {
				p.Points = append(p.Points, Point{At: 0, Region: r, Rate: round3(in.Rates[r])})
			}
			hot := in.Regions[0]
			base := in.Rates[hot]
			for _, step := range []struct {
				frac   float64
				factor float64
			}{{0.4, 4}, {0.5, 2.5}, {0.6, 1.5}, {0.7, 1}} {
				at := roundMS(time.Duration(step.frac * float64(in.Horizon)))
				p.Points = append(p.Points, Point{At: at, Region: hot, Rate: round3(base * step.factor)})
			}
			return p, p.Validate()
		},
	})
	// Three seeded correlated bursts (2-4x, all regions at once) inside
	// the middle 70% of the horizon.
	Register(Registration{
		Name: "burst",
		New: func(in GenInput) (*Profile, error) {
			if err := in.validate(); err != nil {
				return nil, err
			}
			rng := sim.NewRNG(in.Seed).Stream("workload-burst")
			p := &Profile{Name: "burst"}
			for _, r := range in.Regions {
				p.Points = append(p.Points, Point{At: 0, Region: r, Rate: round3(in.Rates[r])})
			}
			const bursts = 3
			slot := time.Duration(0.7 * float64(in.Horizon) / bursts)
			for k := 0; k < bursts; k++ {
				// Jittered start inside the k-th slot; width 25% of a slot,
				// so bursts never overlap and the schedule stays sorted.
				start := roundMS(time.Duration(0.15*float64(in.Horizon)) +
					time.Duration(k)*slot + time.Duration(rng.Float64()*0.4*float64(slot)))
				end := roundMS(start + slot/4)
				mag := 2 + 2*rng.Float64()
				for _, r := range in.Regions {
					p.Points = append(p.Points, Point{At: start, Region: r, Rate: round3(in.Rates[r] * mag)})
				}
				for _, r := range in.Regions {
					p.Points = append(p.Points, Point{At: end, Region: r, Rate: round3(in.Rates[r])})
				}
			}
			return p, p.Validate()
		},
	})
}
