package app

import (
	"math"
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

func TestTwoRegionStudyMatchesTable4(t *testing.T) {
	s := TwoRegionStudy()
	a := s.Region("A")
	b := s.Region("B")
	if a == nil || b == nil {
		t.Fatal("regions A/B missing")
	}
	// Table 4 of the paper: service -> {ET_A ms, CT_A, ET_B ms, CT_B}.
	table4 := map[string]struct {
		etA float64
		ctA int
		etB float64
		ctB int
	}{
		"ticketinfo": {12.2, 44, 4.1, 2},
		"basic":      {9.0, 44, 2.8, 2},
		"seat":       {25.7, 16, 0, 0},
		"travel":     {22.5, 10, 0, 0},
		"station":    {1.3, 70, 1.2, 2},
		"route":      {1.5, 34, 1.4, 1},
		"config":     {2.0, 16, 0, 0},
		"train":      {2.1, 24, 0, 0},
	}
	for svc, want := range table4 {
		ca, okA := a.CallTo(svc)
		if want.ctA > 0 {
			if !okA {
				t.Fatalf("region A missing call to %s", svc)
			}
			if ca.Times != want.ctA {
				t.Fatalf("A CT[%s] = %d, want %d", svc, ca.Times, want.ctA)
			}
			if math.Abs(float64(ca.Exec)-want.etA*float64(time.Millisecond)) > 1e3 {
				t.Fatalf("A ET[%s] = %v, want %.1fms", svc, ca.Exec, want.etA)
			}
		}
		cb, okB := b.CallTo(svc)
		if want.ctB > 0 {
			if !okB {
				t.Fatalf("region B missing call to %s", svc)
			}
			if cb.Times != want.ctB {
				t.Fatalf("B CT[%s] = %d, want %d", svc, cb.Times, want.ctB)
			}
			if math.Abs(float64(cb.Exec)-want.etB*float64(time.Millisecond)) > 1e3 {
				t.Fatalf("B ET[%s] = %v, want %.1fms", svc, cb.Exec, want.etB)
			}
		} else if okB {
			t.Fatalf("region B should not call %s", svc)
		}
	}
}

func TestTable4Weights(t *testing.T) {
	// W = ET × CT must reproduce Table 4's weight row.
	s := TwoRegionStudy()
	a := s.Region("A")
	wantW := map[string]float64{ // milliseconds
		"ticketinfo": 536.8, "basic": 396, "seat": 411.2, "travel": 225,
		"station": 91, "route": 51, "config": 32, "train": 50.4,
	}
	for svc, w := range wantW {
		got := a.Weight(svc)
		if math.Abs(float64(got)-w*float64(time.Millisecond)) > float64(50*time.Microsecond) {
			t.Fatalf("W_A[%s] = %v, want %.1fms", svc, got, w)
		}
	}
	b := s.Region("B")
	wantWB := map[string]float64{"ticketinfo": 8.2, "basic": 5.6, "station": 2.4, "route": 1.4}
	for svc, w := range wantWB {
		got := b.Weight(svc)
		if math.Abs(float64(got)-w*float64(time.Millisecond)) > float64(50*time.Microsecond) {
			t.Fatalf("W_B[%s] = %v, want %.1fms", svc, got, w)
		}
	}
	if b.Weight("seat") != 0 {
		t.Fatal("W_B[seat] should be 0")
	}
}

func TestTrainTicketScale(t *testing.T) {
	s := TrainTicket()
	if got := s.NumServices(); got != 42 {
		t.Fatalf("TrainTicket has %d services, want 42 (paper: more than 40)", got)
	}
	if got := len(s.FunctionServices()); got != 24 {
		t.Fatalf("TrainTicket has %d function services, want 24 business-logic", got)
	}
	if got := len(s.RegionNames()); got != 6 {
		t.Fatalf("TrainTicket has %d regions, want 6", got)
	}
	// Figure 4 call times in the advanced-search region.
	adv := s.Region("advanced-search")
	fig4 := map[string]int{
		"travel2": 10, "travel-plan": 1, "travel": 28, "train": 24,
		"ticketinfo": 44, "station": 70, "seat": 16, "route-plan": 1,
		"route": 34, "price": 4, "order2": 5, "order": 15, "config": 16,
		"basic": 44,
	}
	for svc, want := range fig4 {
		c, ok := adv.CallTo(svc)
		if !ok {
			t.Fatalf("advanced-search missing %s", svc)
		}
		if c.Times != want {
			t.Fatalf("advanced-search CT[%s] = %d, want %d (Figure 4)", svc, c.Times, want)
		}
	}
}

func TestEveryRegionCalleeIsFunction(t *testing.T) {
	for _, spec := range []*Spec{TrainTicket(), TwoRegionStudy()} {
		for _, rn := range spec.RegionNames() {
			r := spec.Region(rn)
			if spec.Service(r.API).Kind != KindAPI {
				t.Fatalf("region %s API %s is not an API service", rn, r.API)
			}
			for _, c := range r.Calls() {
				ms := spec.Service(c.Service)
				if ms == nil || ms.Kind != KindFunction {
					t.Fatalf("region %s callee %s not a function service", rn, c.Service)
				}
			}
		}
	}
}

func TestDatabasePairing(t *testing.T) {
	s := TrainTicket()
	for _, fn := range s.FunctionServices() {
		ms := s.Service(fn)
		if ms.DB == "" {
			continue
		}
		db := s.Service(ms.DB)
		if db == nil || db.Kind != KindDatabase {
			t.Fatalf("service %s pairs with %q which is not a database service", fn, ms.DB)
		}
	}
}

func TestBetaCurveShape(t *testing.T) {
	s := TwoRegionStudy()
	seat := s.Service("seat")   // power-sensitive
	route := s.Service("route") // power-insensitive
	if seat.Beta(2.4) != 1 || route.Beta(2.4) != 1 {
		t.Fatal("beta at fmax must be 1")
	}
	if seat.Beta(1.2) <= route.Beta(1.2) {
		t.Fatalf("sensitive service must inflate more: seat %v vs route %v",
			seat.Beta(1.2), route.Beta(1.2))
	}
	// Monotone non-increasing in frequency.
	prev := math.Inf(1)
	for _, f := range cluster.ProfilePoints() {
		b := seat.Beta(f)
		if b > prev {
			t.Fatalf("beta not monotone at %v", f)
		}
		prev = b
	}
}

func TestRegionAggregates(t *testing.T) {
	s := TwoRegionStudy()
	a := s.Region("A")
	names := a.ServiceNames()
	if len(names) != 8 {
		t.Fatalf("region A calls %d distinct services, want 8", len(names))
	}
	if _, ok := a.CallTo("nonexistent"); ok {
		t.Fatal("CallTo should report missing service")
	}
	if len(a.Calls()) != 8 {
		t.Fatalf("flattened calls = %d, want 8", len(a.Calls()))
	}
	ids := a.ServiceIDs()
	if len(ids) != len(names) {
		t.Fatalf("region A has %d service IDs for %d names", len(ids), len(names))
	}
	for i, id := range ids {
		if got := s.ServiceByID(id); got != s.Service(names[i]) || got.ID() != id {
			t.Fatalf("ServiceIDs()[%d] = %d does not resolve to %q", i, id, names[i])
		}
	}
}

// TestAddRegionResolvesAgainstItsOwnSpec: a region copied out of one spec
// and registered in another (with services in a different order) takes the
// new spec's service IDs and profiles, not the source's.
func TestAddRegionResolvesAgainstItsOwnSpec(t *testing.T) {
	src := TwoRegionStudy()
	dst := NewSpec()
	for i := len(studyServices) - 1; i >= 0; i-- {
		dst.AddService(studyServices[i])
	}
	dst.AddService(Microservice{Name: "api-advanced-search", Kind: KindAPI})
	a := dst.AddRegion(*src.Region("A"))
	want := src.Region("A").ServiceNames()
	got := a.ServiceNames()
	if len(got) != len(want) || len(a.ServiceIDs()) != len(want) {
		t.Fatalf("copied region lists %v / IDs %v, want %v", got, a.ServiceIDs(), want)
	}
	for i, id := range a.ServiceIDs() {
		if got[i] != want[i] || dst.ServiceByID(id) != dst.Service(want[i]) {
			t.Fatalf("service %d: %q (ID %d), want %q from the destination spec", i, got[i], id, want[i])
		}
	}
	for _, c := range a.Calls() {
		if c.callee != dst.Service(c.Service) {
			t.Fatalf("call to %q resolved outside the destination spec", c.Service)
		}
	}
}

func TestSpecValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"duplicate service", func() {
			s := NewSpec()
			s.AddService(Microservice{Name: "x", Kind: KindFunction})
			s.AddService(Microservice{Name: "x", Kind: KindFunction})
		}},
		{"bad cpushare", func() {
			s := NewSpec()
			s.AddService(Microservice{Name: "x", Kind: KindFunction, CPUShare: 1.5})
		}},
		{"unknown api", func() {
			s := NewSpec()
			s.AddRegion(Region{Name: "r", API: "ghost"})
		}},
		{"api wrong kind", func() {
			s := NewSpec()
			s.AddService(Microservice{Name: "f", Kind: KindFunction})
			s.AddRegion(Region{Name: "r", API: "f"})
		}},
		{"unknown callee", func() {
			s := NewSpec()
			s.AddService(Microservice{Name: "a", Kind: KindAPI})
			s.AddRegion(Region{Name: "r", API: "a", Stages: []Stage{{{Service: "ghost", Times: 1, Exec: time.Millisecond}}}})
		}},
		{"callee wrong kind", func() {
			s := NewSpec()
			s.AddService(Microservice{Name: "a", Kind: KindAPI})
			s.AddService(Microservice{Name: "d", Kind: KindDatabase})
			s.AddRegion(Region{Name: "r", API: "a", Stages: []Stage{{{Service: "d", Times: 1, Exec: time.Millisecond}}}})
		}},
		{"zero times", func() {
			s := NewSpec()
			s.AddService(Microservice{Name: "a", Kind: KindAPI})
			s.AddService(Microservice{Name: "f", Kind: KindFunction})
			s.AddRegion(Region{Name: "r", API: "a", Stages: []Stage{{{Service: "f", Times: 0, Exec: time.Millisecond}}}})
		}},
		{"duplicate region", func() {
			s := NewSpec()
			s.AddService(Microservice{Name: "a", Kind: KindAPI})
			s.AddRegion(Region{Name: "r", API: "a"})
			s.AddRegion(Region{Name: "r", API: "a"})
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestPlacedServicesExcludesDatabases(t *testing.T) {
	s := TrainTicket()
	for _, n := range s.PlacedServices() {
		if s.Service(n).Kind == KindDatabase {
			t.Fatalf("database service %s should not be placed", n)
		}
	}
	if len(s.PlacedServices()) != 42-10 {
		t.Fatalf("placed = %d, want 32", len(s.PlacedServices()))
	}
}

// TestExecDistsDrawLikeLogNormal checks the distributions AddRegion
// precomputes for every API job and call edge of every built-in
// application: each draw must equal, bit for bit and stream position for
// stream position, a draw from the log-normal of the edge's mean and
// jitter, which the executor drew per invocation before the
// precomputation (sim's TestDrawMatchesLogNormalReference pins that draw
// to its original body).
func TestExecDistsDrawLikeLogNormal(t *testing.T) {
	for _, name := range BuiltinNames() {
		family, _ := Builtin(name)
		spec := family.New()
		for _, rn := range spec.RegionNames() {
			r := spec.Region(rn)
			check := func(edge string, ms *Microservice, mean time.Duration, d sim.LogNormalDist) {
				got, want := sim.NewRNG(7), sim.NewRNG(7)
				for k := 0; k < 3; k++ {
					g := got.Draw(d)
					w := want.Draw(sim.NewLogNormal(float64(mean), ms.Jitter*float64(mean)))
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s/%s %s draw %d: %v, want %v", name, rn, edge, k, g, w)
					}
				}
				if got.CursorDigest() != want.CursorDigest() {
					t.Fatalf("%s/%s %s: stream cursor diverged", name, rn, edge)
				}
			}
			check("api "+r.API, r.api, r.APIExec, r.apiExec)
			for _, st := range r.Stages {
				for _, c := range st {
					check("call "+c.Service, c.callee, c.Exec, c.exec)
				}
			}
		}
	}
}
