package workload

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Default base levels for generated profiles: requests/second for
// open-loop shapes, workers per region for closed-loop ones.
const (
	DefaultRate       = 30.0
	DefaultClosedRate = 25.0
)

// Spec is the JSON "workload" section of a scenario and the resolved form
// of cmd/fridge's -workload/-rate/-horizon/-trace/-closed flag group: which
// registered shape (or inline trace) makes the run's traffic time-varying,
// at what base level, over what horizon, and whether setpoints drive
// open-loop arrival rates (default) or closed-loop worker counts. Trace
// content is carried inline so a spec stays self-contained — the control
// plane never reads files, and equal specs normalize to equal bytes.
type Spec struct {
	// Profile names a registered shape, or "trace" with Trace set.
	Profile string `json:"profile,omitempty"`
	// Rate is the base per-region level the shape modulates (0 = 30
	// req/s open-loop, 25 workers closed-loop).
	Rate float64 `json:"rate,omitempty"`
	// HorizonS is the schedule horizon in seconds (0 = warmup+duration).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Trace is an inline CSV or JSONL trace (see ParseTrace); it carries
	// its own schedule, so Rate and HorizonS do not combine with it.
	Trace string `json:"trace,omitempty"`
	// Closed drives per-region worker pools instead of open loops.
	Closed bool `json:"closed,omitempty"`
}

// Normalize validates s and returns a copy with every default explicit,
// given the run's warmup+duration in seconds (the horizon default) and
// the application's regions, the only ones a trace may name. Like
// scenario normalization, equal workloads normalize to equal bytes.
func (s Spec) Normalize(totalS float64, regions []string) (Spec, error) {
	if s.Trace != "" {
		if s.Profile != "" && s.Profile != TraceProfile {
			return s, fmt.Errorf("workload: profile %q conflicts with an inline trace", s.Profile)
		}
		if s.Rate != 0 || s.HorizonS != 0 {
			return s, fmt.Errorf("workload: a trace carries its own schedule; rate and horizon_s do not apply")
		}
		p, err := ParseTrace(strings.NewReader(s.Trace))
		if err != nil {
			return s, err
		}
		for _, region := range p.Regions() {
			if !slices.Contains(regions, region) {
				return s, fmt.Errorf("workload: trace region %q is not in the application (regions: %s)",
					region, strings.Join(regions, ", "))
			}
		}
		s.Profile = TraceProfile
		return s, nil
	}
	if s.Profile == "" {
		s.Profile = "steady"
	}
	if s.Profile == TraceProfile {
		return s, fmt.Errorf("workload: profile %q needs an inline trace", TraceProfile)
	}
	if _, ok := Lookup(s.Profile); !ok {
		return s, fmt.Errorf("workload: unknown profile %q (known: %s, %s)",
			s.Profile, strings.Join(Names(), ", "), TraceProfile)
	}
	if s.Rate == 0 {
		s.Rate = DefaultRate
		if s.Closed {
			s.Rate = DefaultClosedRate
		}
	}
	if s.Rate < 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return s, fmt.Errorf("workload: rate %v must be positive and finite", s.Rate)
	}
	if s.HorizonS == 0 {
		s.HorizonS = totalS
	}
	if s.HorizonS <= 0 || math.IsNaN(s.HorizonS) || math.IsInf(s.HorizonS, 0) {
		return s, fmt.Errorf("workload: horizon_s %v must be positive and finite", s.HorizonS)
	}
	if s.HorizonS*float64(time.Second) >= math.MaxInt64 {
		return s, fmt.Errorf("workload: horizon_s %v overflows a time.Duration (max %v)", s.HorizonS, time.Duration(math.MaxInt64))
	}
	if s.Horizon() <= 0 {
		return s, fmt.Errorf("workload: horizon_s %v is shorter than a nanosecond", s.HorizonS)
	}
	return s, nil
}

// Horizon returns the normalized schedule horizon.
func (s Spec) Horizon() time.Duration {
	return time.Duration(s.HorizonS * float64(time.Second))
}

// Build resolves a normalized spec into the Profile it describes: parsing
// the inline trace, or running the registered generator over the given
// regions at the uniform base rate with the given seed.
func (s Spec) Build(regions []string, seed uint64) (*Profile, error) {
	if s.Trace != "" {
		return ParseTrace(strings.NewReader(s.Trace))
	}
	reg, ok := Lookup(s.Profile)
	if !ok {
		return nil, fmt.Errorf("workload: unknown profile %q (known: %s, %s)",
			s.Profile, strings.Join(Names(), ", "), TraceProfile)
	}
	rates := make(map[string]float64, len(regions))
	for _, r := range regions {
		rates[r] = s.Rate
	}
	return reg.New(GenInput{Regions: regions, Rates: rates, Horizon: s.Horizon(), Seed: seed})
}
