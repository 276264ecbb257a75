package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/workload"
)

// TestScenarioZeroIsTable4 checks that the empty spec normalizes to the
// cmd/fridge flag defaults — the paper's Table-4 study configuration.
func TestScenarioZeroIsTable4(t *testing.T) {
	s, err := Scenario{}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if s.Scheme != "Baseline" || s.Budget != 1.0 || s.Workers != 50 ||
		s.WarmupS != 5 || s.DurationS != 30 ||
		s.Seed != 1 || s.App != "study" || s.TickMS != 1000 {
		t.Fatalf("unexpected normalized defaults: %+v", s)
	}
	if s.MixA != nil || s.MixB != nil {
		t.Fatalf("normalization kept legacy mixA/mixB: %+v", s)
	}
	if len(s.Mix) != 2 || s.Mix["A"] != 1 || s.Mix["B"] != 1 {
		t.Fatalf("unexpected normalized mix: %+v", s.Mix)
	}
	tel := s.Telemetry
	if tel == nil || tel.IntervalMS != 1000 || tel.WindowTicks != 10 || tel.SLOTargetMS != 100 {
		t.Fatalf("unexpected telemetry defaults: %+v", tel)
	}
	if got, want := s.SLOTarget(), 100*time.Millisecond; got != want {
		t.Fatalf("SLOTarget() = %v, want %v", got, want)
	}
}

// TestScenarioCanonicalBytes: two specs describing the same run must
// marshal to identical bytes once normalized.
func TestScenarioCanonicalBytes(t *testing.T) {
	a, err := LoadScenario(strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("load a: %v", err)
	}
	b, err := LoadScenario(strings.NewReader(
		`{"scheme":"Baseline","budget":1,"workers":50,"seed":1,"app":"study"}`))
	if err != nil {
		t.Fatalf("load b: %v", err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("normalized marshals differ:\n%s\n%s", ja, jb)
	}
	// The legacy mixA/mixB pair and the equivalent mix map collapse to the
	// same canonical bytes.
	c, err := LoadScenario(strings.NewReader(`{"mixA":2,"mixB":1}`))
	if err != nil {
		t.Fatalf("load c: %v", err)
	}
	d, err := LoadScenario(strings.NewReader(`{"mix":{"A":2,"B":1}}`))
	if err != nil {
		t.Fatalf("load d: %v", err)
	}
	jc, _ := json.Marshal(c)
	jd, _ := json.Marshal(d)
	if string(jc) != string(jd) {
		t.Fatalf("mixA/mixB did not collapse into mix:\n%s\n%s", jc, jd)
	}
	// An explicit zero drops the region from the canonical map.
	e, err := LoadScenario(strings.NewReader(`{"mixA":0,"mixB":1}`))
	if err != nil {
		t.Fatalf("load e: %v", err)
	}
	if len(e.Mix) != 1 || e.Mix["B"] != 1 {
		t.Fatalf("zero mixA survived the collapse: %+v", e.Mix)
	}
}

// TestScenarioMixMap exercises the generic region→weight mix path.
func TestScenarioMixMap(t *testing.T) {
	// Region A (Advanced Search) responses take seconds each, so the
	// measured window has to be long enough for completions to land.
	sc := Scenario{Mix: map[string]float64{"A": 2, "B": 0}, WarmupS: 1, DurationS: 9}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	res := engine.Run(cfg)
	if n := res.Summary("B").Count; n != 0 {
		t.Fatalf("region B got %d requests despite zero weight", n)
	}
	if n := res.Summary("A").Count; n == 0 {
		t.Fatal("region A got no requests")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Scheme: "NoSuchScheme"},
		{Budget: 1.5},
		{Budget: -0.1},
		{Workers: -1},
		{App: "tiny"},
		{MixA: ptr(1), Mix: map[string]float64{"A": 1}},
		{Mix: map[string]float64{"Z": 1}},
		{Mix: map[string]float64{"A": 0}},
		{MixA: ptr(0.0), MixB: ptr(0.0)},
		{MixA: ptr(-1.0)},
		{App: "socialnet", MixA: ptr(1)},
		{WarmupS: -1},
		{TickMS: -5},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d: Normalize accepted invalid scenario %+v", i, s)
		}
	}
	// Non-finite values slip past plain range checks; each is rejected by
	// the name of its field, before it can steer a run.
	named := []struct {
		s     Scenario
		field string
	}{
		{Scenario{Budget: math.NaN()}, "budget NaN"},
		{Scenario{Mix: map[string]float64{"A": math.NaN()}}, `mix weight NaN for region "A"`},
		{Scenario{Mix: map[string]float64{"A": 1, "B": math.Inf(1)}}, `mix weight +Inf for region "B"`},
		{Scenario{Mix: map[string]float64{"A": 1e308, "B": 1e308}}, "mix weights sum to +Inf"},
		{Scenario{MixA: ptr(math.NaN())}, "mixA NaN"},
		{Scenario{MixA: ptr(math.Inf(1))}, "mixA +Inf"},
		{Scenario{MixA: ptr(1e308), MixB: ptr(1e308)}, "mix weights sum to +Inf"},
		{Scenario{Workload: &workload.Spec{Trace: workload.TraceHeader + "\n0,Z,1\n"}}, `trace region "Z"`},
	}
	for _, tc := range named {
		if _, err := tc.s.Normalize(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Normalize(%+v) = %v, want an error naming %s", tc.s, err, tc.field)
		}
	}
	if _, err := LoadScenario(strings.NewReader(`{"schem":"Baseline"}`)); err == nil {
		t.Error("LoadScenario accepted an unknown field")
	}
	for _, body := range []string{`{} {}`, `{}}`, `{}]`, `{} junk`} {
		if _, err := LoadScenario(strings.NewReader(body)); err == nil {
			t.Errorf("LoadScenario accepted trailing data in %q", body)
		}
	}
	if _, err := LoadScenario(strings.NewReader("{}\n \t\n")); err != nil {
		t.Errorf("LoadScenario refused trailing whitespace: %v", err)
	}
}

// TestScenarioRejectsOverflowingDurations requires every seconds or
// milliseconds field whose nanoseconds do not fit a time.Duration to be
// rejected by name, instead of wrapping to a negative duration that
// misreports later or runs a different scenario.
func TestScenarioRejectsOverflowingDurations(t *testing.T) {
	steady := func(horizon float64) *workload.Spec {
		return &workload.Spec{Profile: "steady", HorizonS: horizon}
	}
	cases := []struct {
		s     Scenario
		field string
	}{
		{Scenario{WarmupS: 9.3e9}, "warmup_s"},
		{Scenario{DurationS: 1e10}, "duration_s"},
		{Scenario{DurationS: math.Inf(1)}, "duration_s"},
		{Scenario{WarmupS: math.NaN()}, "warmup_s"},
		{Scenario{WarmupS: 5e9, DurationS: 5e9}, "warmup_s 5e+09 + duration_s"},
		{Scenario{TickMS: 1e13}, "tick_ms"},
		{Scenario{Telemetry: &ScenarioTelemetry{IntervalMS: 1e13}}, "telemetry.interval_ms"},
		{Scenario{Telemetry: &ScenarioTelemetry{SLOTargetMS: 1e13}}, "telemetry.slo_target_ms"},
		{Scenario{Workload: steady(1e10)}, "horizon_s"},
	}
	for _, tc := range cases {
		_, err := tc.s.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), "overflows a time.Duration") {
			t.Errorf("Normalize(%+v) = %v, want an overflow error naming %s", tc.s, err, tc.field)
		}
	}
	// The largest values that still fit are accepted.
	for _, s := range []Scenario{
		{WarmupS: 4e9, DurationS: 5e9},
		{TickMS: 9e12},
		{Telemetry: &ScenarioTelemetry{IntervalMS: 9e12, SLOTargetMS: 9e12}},
		{Workload: steady(9e9)},
	} {
		if _, err := s.Normalize(); err != nil {
			t.Errorf("Normalize(%+v): %v", s, err)
		}
	}
}

// TestScenarioRejectsSubNanosecondDurations requires every positive
// seconds or milliseconds field that rounds to 0 ns to be rejected by
// name: the engine and telemetry read a zero duration as "use the
// default", so such a scenario would run for 5 s of warmup, 30 s, or 1 s
// ticks instead of what it says.
func TestScenarioRejectsSubNanosecondDurations(t *testing.T) {
	cases := []struct {
		s     Scenario
		field string
	}{
		{Scenario{WarmupS: 1e-12, DurationS: 2}, "warmup_s"},
		{Scenario{DurationS: 1e-12}, "duration_s"},
		{Scenario{TickMS: 1e-7}, "tick_ms"},
		{Scenario{Telemetry: &ScenarioTelemetry{IntervalMS: 1e-7}}, "telemetry.interval_ms"},
		{Scenario{Telemetry: &ScenarioTelemetry{SLOTargetMS: 1e-7}}, "telemetry.slo_target_ms"},
	}
	for _, tc := range cases {
		_, err := tc.s.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), "shorter than a nanosecond") {
			t.Errorf("Normalize(%+v) = %v, want a sub-nanosecond error naming %s", tc.s, err, tc.field)
		}
	}
	// Exactly one nanosecond is accepted and converts to 1 ns.
	s, err := Scenario{
		WarmupS: 1e-9, DurationS: 1e-9, TickMS: 1e-6,
		Telemetry: &ScenarioTelemetry{IntervalMS: 1e-6, SLOTargetMS: 1e-6},
	}.Normalize()
	if err != nil {
		t.Fatalf("one nanosecond rejected: %v", err)
	}
	for name, d := range scenarioDurations(s) {
		if d != time.Nanosecond {
			t.Errorf("%s = %v, want 1ns", name, d)
		}
	}
}

// scenarioDurations lists every duration a normalized scenario converts
// to, by field.
func scenarioDurations(s Scenario) map[string]time.Duration {
	return map[string]time.Duration{
		"warmup_s":                s.Warmup(),
		"duration_s":              s.Duration(),
		"tick_ms":                 secs(s.TickMS / 1000),
		"telemetry.interval_ms":   secs(s.Telemetry.IntervalMS / 1000),
		"telemetry.slo_target_ms": s.SLOTarget(),
	}
}

func ptr(f float64) *float64 { return &f }

// FuzzScenario feeds arbitrary bytes to the scenario parser. Its seed
// corpus (testdata/fuzz/FuzzScenario) holds every committed scenario and
// the inputs that once slipped through normalization. An accepted
// scenario must be canonical — re-loading its JSON gives the same bytes —
// and must be runnable: Config succeeds, every duration converts to at
// least 1 ns (the engine would replace a zero with its default), and the
// mix total the request generator draws against is finite.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		again, err := LoadScenario(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", canon, err)
		}
		if b, _ := json.Marshal(again); !bytes.Equal(b, canon) {
			t.Fatalf("re-loading is not the identity:\n%s\n%s", canon, b)
		}
		cfg, err := s.Config()
		if err != nil {
			t.Fatalf("accepted scenario %s has no config: %v", canon, err)
		}
		for name, d := range scenarioDurations(s) {
			if d < time.Nanosecond {
				t.Fatalf("accepted scenario %s converts %s to %v", canon, name, d)
			}
		}
		total := 0.0
		for _, region := range cfg.Spec.RegionNames() {
			total += s.Mix[region]
		}
		if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
			t.Fatalf("accepted scenario %s has mix total %v", canon, total)
		}
	})
}
