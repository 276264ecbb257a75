package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/sim"
)

func pts(rows ...Point) *Profile { return &Profile{Name: "test", Points: rows} }

func TestProfileValidate(t *testing.T) {
	good := pts(
		Point{At: 0, Region: "A", Rate: 10},
		Point{At: 0, Region: "B", Rate: 5},
		Point{At: time.Second, Region: "A", Rate: 20},
	)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	if got, want := good.Regions(), []string{"A", "B"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Regions() = %v, want %v", got, want)
	}
	if got, want := good.Length(), time.Second; got != want {
		t.Fatalf("Length() = %v, want %v", got, want)
	}

	bad := []*Profile{
		pts(), // no points
		pts(Point{At: -time.Second, Region: "A", Rate: 1}),
		pts(Point{At: 0, Region: "", Rate: 1}),
		pts(Point{At: 0, Region: "A", Rate: -1}),
		pts(Point{At: 0, Region: "A", Rate: math.Inf(1)}),
		pts(Point{At: 0, Region: "A", Rate: math.NaN()}),
		pts(Point{At: time.Second, Region: "A", Rate: 1}, Point{At: 0, Region: "A", Rate: 2}), // unsorted
		pts(Point{At: 0, Region: "A", Rate: 1}, Point{At: 0, Region: "A", Rate: 2}),           // duplicate key
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid profile %+v", i, p.Points)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no registered generators")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, want := range []string{"steady", "diurnal", "flash-crowd", "burst"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("built-in generator %q missing (have %v)", want, names)
		}
	}
	if _, ok := Lookup(TraceProfile); ok {
		t.Errorf("%q is reserved and must not resolve to a generator", TraceProfile)
	}
	for _, name := range []string{"steady", TraceProfile, ""} {
		name := name
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", name)
				}
			}()
			Register(Registration{Name: name, New: func(GenInput) (*Profile, error) { return nil, nil }})
		}()
	}
}

func TestGeneratorsProduceValidProfiles(t *testing.T) {
	in := GenInput{
		Regions: []string{"A", "B"},
		Rates:   map[string]float64{"A": 30, "B": 20},
		Horizon: 20 * time.Second,
		Seed:    7,
	}
	for _, name := range Names() {
		reg, _ := Lookup(name)
		p, err := reg.New(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: generated profile invalid: %v", name, err)
		}
		if p.Length() > in.Horizon {
			t.Errorf("%s: schedule runs to %v, past the %v horizon", name, p.Length(), in.Horizon)
		}
		covered := map[string]bool{}
		for _, r := range p.Regions() {
			covered[r] = true
		}
		for _, r := range in.Regions {
			if !covered[r] {
				t.Errorf("%s: region %q has no setpoints", name, r)
			}
		}
		// Same input, same schedule.
		again, err := reg.New(in)
		if err != nil {
			t.Fatalf("%s (again): %v", name, err)
		}
		if len(again.Points) != len(p.Points) {
			t.Fatalf("%s: nondeterministic point count %d vs %d", name, len(again.Points), len(p.Points))
		}
		for i := range p.Points {
			if p.Points[i] != again.Points[i] {
				t.Fatalf("%s: nondeterministic point %d: %+v vs %+v", name, i, p.Points[i], again.Points[i])
			}
		}
	}

	// The burst generator is the only seeded one: a different seed must
	// move the bursts.
	reg, _ := Lookup("burst")
	a, _ := reg.New(in)
	in2 := in
	in2.Seed = 8
	b, _ := reg.New(in2)
	same := len(a.Points) == len(b.Points)
	if same {
		for i := range a.Points {
			if a.Points[i] != b.Points[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("burst generator ignores the seed")
	}

	for i, bad := range []GenInput{
		{},
		{Regions: []string{"A"}, Rates: map[string]float64{"A": 0}, Horizon: time.Second},
		{Regions: []string{"A"}, Rates: map[string]float64{"A": -1}, Horizon: time.Second},
		{Regions: []string{"A"}, Rates: map[string]float64{"A": math.Inf(1)}, Horizon: time.Second},
		{Regions: []string{"A"}, Rates: map[string]float64{"A": 1}},
	} {
		if _, err := reg.New(bad); err == nil {
			t.Errorf("case %d: generator accepted invalid input %+v", i, bad)
		}
	}
}

func TestSpecNormalize(t *testing.T) {
	s, err := (&Spec{}).Normalize(35, []string{"A", "B"})
	if err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if s.Profile != "steady" || s.Rate != DefaultRate || s.HorizonS != 35 {
		t.Fatalf("unexpected zero-spec defaults: %+v", s)
	}
	s, err = (&Spec{Closed: true}).Normalize(35, []string{"A", "B"})
	if err != nil {
		t.Fatalf("closed spec: %v", err)
	}
	if s.Rate != DefaultClosedRate {
		t.Fatalf("closed default rate = %v, want %v", s.Rate, DefaultClosedRate)
	}

	trace := TraceHeader + "\n0,A,10\n1,A,20\n"
	s, err = (&Spec{Trace: trace}).Normalize(35, []string{"A", "B"})
	if err != nil {
		t.Fatalf("trace spec: %v", err)
	}
	if s.Profile != TraceProfile {
		t.Fatalf("trace spec normalized profile = %q, want %q", s.Profile, TraceProfile)
	}
	p, err := s.Build([]string{"A", "B"}, 1)
	if err != nil {
		t.Fatalf("trace build: %v", err)
	}
	if len(p.Points) != 2 || p.Points[1].Rate != 20 {
		t.Fatalf("trace build points: %+v", p.Points)
	}

	bad := []*Spec{
		{Profile: "no-such-shape"},
		{Profile: TraceProfile},               // trace profile without a trace
		{Profile: "diurnal", Trace: trace},    // both
		{Trace: trace, Rate: 10},              // a trace carries its own schedule
		{Trace: trace, HorizonS: 5},           // ditto
		{Trace: "bogus"},                      // malformed trace
		{Trace: TraceHeader + "\n0,Z,1\n"},    // a region the application lacks
		{Profile: "steady", Rate: -1},         // negative rate
		{Profile: "steady", Rate: math.NaN()}, // non-finite rate
		{Profile: "steady", HorizonS: -2},     // negative horizon
		{Profile: "steady", HorizonS: math.Inf(1)},
		{Profile: "steady", HorizonS: 1e-10}, // rounds to a zero horizon
	}
	for i, ws := range bad {
		if _, err := ws.Normalize(35, []string{"A", "B"}); err == nil {
			t.Errorf("case %d: Normalize accepted invalid spec %+v", i, ws)
		}
	}
}

// driverRig wires a profile-driven pair of open loops (or pools) to a
// fresh engine.
type driverRig struct {
	eng   *sim.Engine
	open  map[string]*OpenLoop
	pools map[string]*ClosedLoop
	d     *Driver
}

func newDriverRig(t *testing.T, p *Profile, closed bool) *driverRig {
	t.Helper()
	eng := sim.NewEngine(1)
	l := newFakeLauncher(eng, 10*time.Millisecond)
	rig := &driverRig{eng: eng, open: map[string]*OpenLoop{}, pools: map[string]*ClosedLoop{}}
	for _, r := range []string{"A", "B"} {
		if closed {
			rig.pools[r] = NewClosedLoop(eng, l, eng.RNG().Stream("pool-"+r), NewMix([]string{r}, map[string]float64{r: 1}))
		} else {
			rig.open[r] = NewOpenLoop(eng, l, eng.RNG().Stream("open-"+r), NewMix([]string{r}, map[string]float64{r: 1}))
		}
	}
	rig.d = NewDriver(eng, p, rig.open, rig.pools, closed)
	rig.d.Start()
	return rig
}

func TestDriverAppliesSchedule(t *testing.T) {
	p := pts(
		Point{At: 0, Region: "A", Rate: 10},
		Point{At: 0, Region: "B", Rate: 4},
		Point{At: 2 * time.Second, Region: "A", Rate: 30},
		Point{At: 4 * time.Second, Region: "A", Rate: 0},
	)
	rig := newDriverRig(t, p, false)
	rig.eng.RunFor(time.Second)
	if got := rig.open["A"].Rate(); got != 10 {
		t.Fatalf("A rate at t=1s: %v, want 10", got)
	}
	if got := rig.open["B"].Rate(); got != 4 {
		t.Fatalf("B rate at t=1s: %v, want 4", got)
	}
	rig.eng.RunFor(2 * time.Second)
	if got := rig.open["A"].Rate(); got != 30 {
		t.Fatalf("A rate at t=3s: %v, want 30", got)
	}
	rig.eng.RunFor(2 * time.Second)
	if got := rig.open["A"].Rate(); got != 0 {
		t.Fatalf("A rate at t=5s: %v, want 0", got)
	}
	if got := rig.open["B"].Rate(); got != 4 {
		t.Fatalf("B rate must persist: %v, want 4", got)
	}
}

func TestDriverClosedMode(t *testing.T) {
	p := pts(
		Point{At: 0, Region: "A", Rate: 6},
		Point{At: time.Second, Region: "A", Rate: 2},
	)
	rig := newDriverRig(t, p, true)
	rig.eng.RunFor(500 * time.Millisecond)
	if got := rig.pools["A"].Workers(); got != 6 {
		t.Fatalf("A workers at t=0.5s: %d, want 6", got)
	}
	rig.eng.RunFor(time.Second)
	if got := rig.pools["A"].Workers(); got != 2 {
		t.Fatalf("A workers at t=1.5s: %d, want 2", got)
	}
}

func TestDriverScaleAndSwap(t *testing.T) {
	p := pts(
		Point{At: 0, Region: "A", Rate: 10},
		Point{At: 2 * time.Second, Region: "A", Rate: 20},
	)
	rig := newDriverRig(t, p, false)
	rig.eng.RunFor(time.Second)
	rig.d.SetScale(2)
	if got := rig.open["A"].Rate(); got != 20 {
		t.Fatalf("scaled rate: %v, want 20", got)
	}
	rig.eng.RunFor(1500 * time.Millisecond) // the t=2s setpoint fires scaled
	if got := rig.open["A"].Rate(); got != 40 {
		t.Fatalf("scaled future setpoint: %v, want 40", got)
	}

	// Swap: past-due points apply immediately, future ones fire, stale
	// wakeups from the old schedule are ignored.
	swap := pts(
		Point{At: 0, Region: "A", Rate: 3},
		Point{At: time.Second, Region: "A", Rate: 5}, // past due at t=2.5s: latest wins
		Point{At: 3 * time.Second, Region: "A", Rate: 7},
	)
	if err := rig.d.Swap(swap); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if got := rig.open["A"].Rate(); got != 10 { // 5 × scale 2
		t.Fatalf("post-swap rate: %v, want 10", got)
	}
	rig.eng.RunFor(time.Second)
	if got := rig.open["A"].Rate(); got != 14 { // 7 × scale 2
		t.Fatalf("post-swap future setpoint: %v, want 14", got)
	}

	if err := rig.d.Swap(pts(Point{At: 0, Region: "Z", Rate: 1})); err == nil {
		t.Fatal("Swap accepted a profile naming a region with no generator")
	}
	if err := rig.d.Swap(pts()); err == nil {
		t.Fatal("Swap accepted an invalid profile")
	}
}

func TestDriverSnapshotRestore(t *testing.T) {
	p := pts(
		Point{At: 0, Region: "A", Rate: 10},
		Point{At: time.Second, Region: "A", Rate: 20},
		Point{At: 2 * time.Second, Region: "A", Rate: 30},
	)
	rig := newDriverRig(t, p, false)
	rig.eng.RunFor(1500 * time.Millisecond)
	snap := rig.d.Snapshot()
	rig.d.SetScale(3)
	rig.d.Restore(snap)
	if rig.d.Scale() != 1 {
		t.Fatalf("restore left scale at %v", rig.d.Scale())
	}
	if got := rig.d.Profile(); got != p {
		t.Fatalf("restore changed the profile pointer")
	}
}

func TestSpecNormalizeTraceNameConflict(t *testing.T) {
	// A spec naming a generator AND carrying a trace must fail even when
	// the named profile is the reserved trace name spelled explicitly
	// with extras.
	tr := strings.Join([]string{TraceHeader, "0,A,1"}, "\n")
	if _, err := (&Spec{Profile: "steady", Trace: tr}).Normalize(10, []string{"A", "B"}); err == nil {
		t.Fatal("Normalize accepted profile+trace")
	}
}
