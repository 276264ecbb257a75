package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/engine"
	"servicefridge/internal/schemes"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/workload"
)

// Scenario is the one description of a single run: cmd/fridge layers its
// flags onto one (-scenario supplies the starting file), the control
// plane (internal/server) decodes one per session, and bench/ loads the
// committed ones. Every field is optional; the zero scenario normalizes
// to the cmd/fridge flag defaults, i.e. the paper's Table-4 study
// configuration (Baseline scheme, full budget, 50 workers, A:B = 1:1,
// 5s warmup + 30s measured, seed 1). Normalization makes every default
// explicit, so two specs that describe the same run marshal to identical
// bytes — the property the control plane's byte-identical response
// guarantee rests on. Config is the only mapping from a run description
// to engine.Config.
type Scenario struct {
	// Scheme is a power-scheme registry name ("" = Baseline).
	Scheme string `json:"scheme,omitempty"`
	// Budget is the power budget fraction in (0, 1] (0 = 1.0).
	Budget float64 `json:"budget,omitempty"`
	// Workers is the closed-loop worker count (0 = 50, or 0 = stopped
	// when a workload section drives the traffic instead).
	Workers int `json:"workers,omitempty"`
	// MixA and MixB weight the two-region study mix (nil = 1). They are
	// pointers so an explicit zero ("region B only") survives JSON, and
	// they are wire-compat input only: normalization collapses them into
	// Mix, so everything downstream sees one representation.
	MixA *float64 `json:"mixA,omitempty"`
	MixB *float64 `json:"mixB,omitempty"`
	// Mix is the region→weight map. It conflicts with MixA/MixB;
	// zero-weight entries are dropped during normalization, and the
	// normalized form always carries an explicit map (uniform over the
	// app's regions by default).
	Mix map[string]float64 `json:"mix,omitempty"`
	// WarmupS and DurationS are the discarded and measured phases in
	// seconds (0 = 5 and 30, matching the engine's own defaults).
	WarmupS   float64 `json:"warmup_s,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	// Seed is the run's random seed (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// App selects the built-in application family (app.BuiltinNames:
	// "study" (default), "full", "socialnet").
	App string `json:"app,omitempty"`
	// Workload optionally makes the run's traffic time-varying: a
	// registered profile or an inline trace driving per-region open
	// loops (or worker pools). Nil keeps the steady closed-loop default.
	Workload *workload.Spec `json:"workload,omitempty"`
	// TickMS is the controller interval in milliseconds (0 = 1000).
	TickMS float64 `json:"tick_ms,omitempty"`
	// Telemetry configures the live-telemetry sampler attached to the
	// run (nil = defaults: 1000ms interval, 10-tick window, 100ms SLO).
	Telemetry *ScenarioTelemetry `json:"telemetry,omitempty"`
}

// ScenarioTelemetry mirrors telemetry.Options plus the SLO target.
type ScenarioTelemetry struct {
	IntervalMS  float64 `json:"interval_ms,omitempty"`
	WindowTicks int     `json:"window_ticks,omitempty"`
	SLOTargetMS float64 `json:"slo_target_ms,omitempty"`
}

// Normalize validates s and returns a copy with every default explicit.
// Normalized scenarios are canonical: equal runs marshal to equal bytes.
func (s Scenario) Normalize() (Scenario, error) {
	s, _, err := s.normalize(nil)
	return s, err
}

// normalize is Normalize against spec, the application the run executes
// (nil = the built-in family s.App names, built here once). It returns
// the spec it checked the mix against.
func (s Scenario) normalize(spec *app.Spec) (Scenario, *app.Spec, error) {
	if s.Scheme == "" {
		s.Scheme = string(engine.Baseline)
	}
	if _, ok := schemes.Lookup(s.Scheme); !ok {
		return s, nil, fmt.Errorf("scenario: unknown scheme %q (known: %s)",
			s.Scheme, strings.Join(schemes.Names(), ", "))
	}
	if s.Budget == 0 {
		s.Budget = 1.0
	}
	if !(s.Budget > 0 && s.Budget <= 1) {
		return s, nil, fmt.Errorf("scenario: budget %v must be in (0, 1]", s.Budget)
	}
	if s.Workers == 0 && s.Workload == nil {
		s.Workers = 50
	}
	if s.Workers < 0 {
		return s, nil, fmt.Errorf("scenario: workers %d must not be negative", s.Workers)
	}
	if s.App == "" {
		s.App = "study"
	}
	family, ok := app.Builtin(s.App)
	if !ok {
		return s, nil, fmt.Errorf("scenario: unknown app %q (known: %s)",
			s.App, strings.Join(app.BuiltinNames(), ", "))
	}
	if spec == nil {
		spec = family.New()
	}
	// Collapse the legacy MixA/MixB pair into the Mix map: everything
	// downstream of normalization sees one mix representation. The wire
	// format still accepts mixA/mixB; the canonical form never carries
	// them.
	if len(s.Mix) > 0 {
		if s.MixA != nil || s.MixB != nil {
			return s, nil, fmt.Errorf("scenario: mix conflicts with mixA/mixB")
		}
		clean := make(map[string]float64, len(s.Mix))
		for region, w := range s.Mix {
			if !finite(w) {
				return s, nil, fmt.Errorf("scenario: mix weight %v for region %q must be finite", w, region)
			}
			if w < 0 {
				return s, nil, fmt.Errorf("scenario: mix weight %v for region %q must not be negative", w, region)
			}
			if spec.Region(region) == nil {
				return s, nil, fmt.Errorf("scenario: mix region %q is not in the application (regions: %s)",
					region, strings.Join(spec.RegionNames(), ", "))
			}
			if w > 0 {
				clean[region] = w
			}
		}
		if len(clean) == 0 {
			return s, nil, fmt.Errorf("scenario: mix has no positive weights")
		}
		s.Mix = clean
	} else if s.MixA != nil || s.MixB != nil {
		if spec.Region("A") == nil || spec.Region("B") == nil {
			return s, nil, fmt.Errorf("scenario: mixA/mixB need regions A and B; the application has %s (use mix)",
				strings.Join(spec.RegionNames(), ", "))
		}
		a, b := 1.0, 1.0
		if s.MixA != nil {
			a = *s.MixA
		}
		if s.MixB != nil {
			b = *s.MixB
		}
		if !finite(a) || !finite(b) {
			return s, nil, fmt.Errorf("scenario: mixA %v and mixB %v must be finite", a, b)
		}
		if a < 0 || b < 0 {
			return s, nil, fmt.Errorf("scenario: mixA %v and mixB %v must not be negative", a, b)
		}
		if a == 0 && b == 0 {
			return s, nil, fmt.Errorf("scenario: mixA and mixB must not both be zero")
		}
		s.Mix = map[string]float64{}
		if a > 0 {
			s.Mix["A"] = a
		}
		if b > 0 {
			s.Mix["B"] = b
		}
	} else {
		s.Mix = make(map[string]float64, len(spec.RegionNames()))
		for _, region := range spec.RegionNames() {
			s.Mix[region] = 1
		}
	}
	s.MixA, s.MixB = nil, nil
	// The weights are summed in region order, as workload.NewMix sums
	// them: an infinite total would send every request to the last region.
	total := 0.0
	for _, region := range spec.RegionNames() {
		total += s.Mix[region]
	}
	if !finite(total) {
		return s, nil, fmt.Errorf("scenario: mix weights sum to %v; the total must be finite", total)
	}
	if s.WarmupS == 0 {
		s.WarmupS = 5
	}
	if s.DurationS == 0 {
		s.DurationS = 30
	}
	if s.WarmupS < 0 || s.DurationS < 0 {
		return s, nil, fmt.Errorf("scenario: warmup_s %v and duration_s %v must not be negative", s.WarmupS, s.DurationS)
	}
	if err := fitsDuration("warmup_s", s.WarmupS, 1); err != nil {
		return s, nil, err
	}
	if err := fitsDuration("duration_s", s.DurationS, 1); err != nil {
		return s, nil, err
	}
	if s.Warmup() > math.MaxInt64-s.Duration() {
		return s, nil, fmt.Errorf("scenario: warmup_s %v + duration_s %v overflows a time.Duration (max %v)",
			s.WarmupS, s.DurationS, time.Duration(math.MaxInt64))
	}
	if s.Workload != nil {
		w, err := s.Workload.Normalize(s.WarmupS+s.DurationS, spec.RegionNames())
		if err != nil {
			return s, nil, fmt.Errorf("scenario: %v", err)
		}
		s.Workload = &w
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TickMS == 0 {
		s.TickMS = 1000
	}
	if s.TickMS <= 0 {
		return s, nil, fmt.Errorf("scenario: tick_ms %v must be positive", s.TickMS)
	}
	if err := fitsDuration("tick_ms", s.TickMS, 1000); err != nil {
		return s, nil, err
	}
	tel := ScenarioTelemetry{}
	if s.Telemetry != nil {
		tel = *s.Telemetry
	}
	if tel.IntervalMS == 0 {
		tel.IntervalMS = 1000
	}
	if tel.WindowTicks == 0 {
		tel.WindowTicks = 10
	}
	if tel.SLOTargetMS == 0 {
		tel.SLOTargetMS = telemetry.DefaultSLOTarget.Seconds() * 1000
	}
	if tel.IntervalMS < 0 || tel.WindowTicks < 0 || tel.SLOTargetMS < 0 {
		return s, nil, fmt.Errorf("scenario: telemetry options must not be negative")
	}
	if err := fitsDuration("telemetry.interval_ms", tel.IntervalMS, 1000); err != nil {
		return s, nil, err
	}
	if err := fitsDuration("telemetry.slo_target_ms", tel.SLOTargetMS, 1000); err != nil {
		return s, nil, err
	}
	s.Telemetry = &tel
	return s, spec, nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// secs converts seconds to the nearest nanosecond, so a whole-nanosecond
// duration survives the round trip through float seconds (cmd/fridge's
// -warmup 1.001s stays 1.001s; truncation would make it 1.000999999s).
// Normalize has checked, with fitsDuration, that the result fits.
func secs(s float64) time.Duration { return time.Duration(math.Round(s * float64(time.Second))) }

// fitsDuration rejects a field whose value v, in units of 1/perSecond
// seconds, secs cannot convert faithfully: its nanoseconds must fit an
// int64 (NaN never does), and a positive value must not round to 0 ns,
// which the engine and telemetry would replace with their defaults.
func fitsDuration(field string, v, perSecond float64) error {
	ns := math.Round(v / perSecond * float64(time.Second))
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return fmt.Errorf("scenario: %s %v overflows a time.Duration (max %v)", field, v, time.Duration(math.MaxInt64))
	}
	if v > 0 && ns == 0 {
		return fmt.Errorf("scenario: %s %v is shorter than a nanosecond", field, v)
	}
	return nil
}

// Warmup and Duration return the normalized phase lengths. They assume a
// normalized scenario (Warmup returns 0 for the zero scenario).
func (s Scenario) Warmup() time.Duration   { return secs(s.WarmupS) }
func (s Scenario) Duration() time.Duration { return secs(s.DurationS) }

// SLOTarget returns the normalized p95 response-time target.
func (s Scenario) SLOTarget() time.Duration {
	if s.Telemetry == nil {
		return telemetry.DefaultSLOTarget
	}
	return secs(s.Telemetry.SLOTargetMS / 1000)
}

// Config normalizes s and builds the engine configuration it describes.
// It is the only mapping from a run description to engine.Config: a
// cmd/fridge run, a control-plane session and a bench/ workload with the
// same scenario and seed are byte-identical.
func (s Scenario) Config() (engine.Config, error) {
	_, cfg, err := s.ConfigFor(nil)
	return cfg, err
}

// ConfigFor is Config for a run of spec, a custom application profile
// (cmd/fridge -spec), instead of the built-in family s.App names; a nil
// spec is Config. It also returns the normalized scenario, whose mix it
// checked against spec.
func (s Scenario) ConfigFor(spec *app.Spec) (Scenario, engine.Config, error) {
	s, spec, err := s.normalize(spec)
	if err != nil {
		return s, engine.Config{}, err
	}
	cfg := engine.Config{
		Seed:            s.Seed,
		Spec:            spec,
		Scheme:          engine.SchemeName(s.Scheme),
		BudgetFraction:  s.Budget,
		Workers:         s.Workers,
		Mix:             workload.NewMix(spec.RegionNames(), s.Mix),
		Warmup:          s.Warmup(),
		Duration:        s.Duration(),
		ControlInterval: secs(s.TickMS / 1000),
	}
	if s.Workload != nil {
		prof, err := s.Workload.Build(spec.RegionNames(), s.Seed)
		if err != nil {
			return s, engine.Config{}, fmt.Errorf("scenario: %v", err)
		}
		cfg.Profile = prof
		cfg.ProfileClosed = s.Workload.Closed
	}
	return s, cfg, cfg.Validate()
}

// NewTelemetry builds the telemetry sampler the scenario describes. The
// SLO monitor's grace period is the warmup, so the discarded phase cannot
// trip alerts. It assumes a normalized scenario.
func (s Scenario) NewTelemetry() *telemetry.Telemetry {
	opt := telemetry.Options{
		SLO: telemetry.SLOOptions{Target: s.SLOTarget(), Grace: s.Warmup()},
	}
	if s.Telemetry != nil {
		opt.Interval = secs(s.Telemetry.IntervalMS / 1000)
		opt.WindowTicks = s.Telemetry.WindowTicks
	}
	return telemetry.New(opt)
}

// DecodeScenario decodes one JSON scenario from r, rejecting unknown
// fields and trailing data, without normalizing — for callers that layer
// overrides (cmd/fridge flags) on top before normalization.
func DecodeScenario(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: %v", err)
	}
	if dec.More() {
		return s, fmt.Errorf("scenario: trailing data after the JSON document")
	}
	return s, nil
}

// LoadScenario decodes one JSON scenario from r, rejecting unknown fields
// and trailing data, and returns it normalized.
func LoadScenario(r io.Reader) (Scenario, error) {
	s, err := DecodeScenario(r)
	if err != nil {
		return s, err
	}
	return s.Normalize()
}
