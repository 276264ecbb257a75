package app

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, build := range []func() *Spec{TwoRegionStudy, TrainTicket} {
		orig := build()
		data, err := orig.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if got, want := back.NumServices(), orig.NumServices(); got != want {
			t.Fatalf("services %d, want %d", got, want)
		}
		if got, want := back.RegionNames(), orig.RegionNames(); len(got) != len(want) {
			t.Fatalf("regions %v, want %v", got, want)
		}
		for i, rn := range orig.RegionNames() {
			if back.RegionNames()[i] != rn {
				t.Fatalf("region order changed: %v", back.RegionNames())
			}
			ro, rb := orig.Region(rn), back.Region(rn)
			if ro.APIExec != rb.APIExec || ro.API != rb.API {
				t.Fatalf("region %s header changed", rn)
			}
			for _, svc := range ro.ServiceNames() {
				co, _ := ro.CallTo(svc)
				cb, ok := rb.CallTo(svc)
				if !ok || co.Times != cb.Times {
					t.Fatalf("region %s call %s changed: %+v vs %+v", rn, svc, co, cb)
				}
				if diff := co.Exec - cb.Exec; diff < -time.Microsecond || diff > time.Microsecond {
					t.Fatalf("region %s call %s exec drifted: %v vs %v", rn, svc, co.Exec, cb.Exec)
				}
			}
		}
		for _, name := range orig.ServiceNames() {
			mo, mb := orig.Service(name), back.Service(name)
			if mb == nil || mo.Kind != mb.Kind || mo.CPUShare != mb.CPUShare || mo.DB != mb.DB {
				t.Fatalf("service %s changed: %+v vs %+v", name, mo, mb)
			}
		}
	}
}

func TestSpecWriteToAndReadSpec(t *testing.T) {
	var buf bytes.Buffer
	if _, err := TwoRegionStudy().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ticketinfo"`) {
		t.Fatal("JSON missing service names")
	}
	back, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumServices() != 10 {
		t.Fatalf("round-trip services = %d", back.NumServices())
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad json", `{`},
		{"empty", `{}`},
		{"unknown kind", `{"services":[{"name":"x","kind":"weird"}]}`},
		{"bad cpushare", `{"services":[{"name":"x","kind":"function","cpuShare":2}]}`},
		{"unknown api", `{"services":[{"name":"f","kind":"function"}],
			"regions":[{"name":"r","api":"ghost","apiExecMs":1,"stages":[]}]}`},
		{"unknown callee", `{"services":[{"name":"a","kind":"api"}],
			"regions":[{"name":"r","api":"a","apiExecMs":1,
			"stages":[[{"service":"ghost","times":1,"execMs":1}]]}]}`},
		{"duplicate service", `{"services":[{"name":"a","kind":"api"},{"name":"a","kind":"api"}]}`},
	}
	for _, c := range cases {
		if _, err := ParseSpec([]byte(c.in)); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

func TestParseSpecMinimalValid(t *testing.T) {
	in := `{
	  "services": [
	    {"name": "gate", "kind": "api", "cpuShare": 0.5},
	    {"name": "work", "kind": "function", "cpuShare": 0.8, "jitter": 0.1}
	  ],
	  "regions": [
	    {"name": "r1", "api": "gate", "apiExecMs": 2.5,
	     "stages": [[{"service": "work", "times": 3, "execMs": 7.5, "concurrency": 2}]]}
	  ]
	}`
	s, err := ParseSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Region("r1")
	if r == nil {
		t.Fatal("region missing")
	}
	if r.APIExec != 2500*time.Microsecond {
		t.Fatalf("apiExec = %v", r.APIExec)
	}
	c, ok := r.CallTo("work")
	if !ok || c.Times != 3 || c.Exec != 7500*time.Microsecond || c.Concurrency != 2 {
		t.Fatalf("call = %+v", c)
	}
	if s.Service("work").Beta(1.2) <= 1 {
		t.Fatal("beta curve not derived from cpuShare")
	}
}

// FuzzParseSpec feeds arbitrary bytes to the profile parser. Its seed
// corpus (testdata/fuzz/FuzzParseSpec) holds the built-in study and
// TrainTicket profiles and the inputs that once parsed and then crashed
// the run: a negative API demand, millisecond fields past the
// time.Duration range, a jitter whose log-normal σ² overflows, and
// demands that fit a time.Duration but whose jittered draws, or whose
// wall time at the lowest P-state, do not. An accepted profile must run:
// every API demand is non-negative, every call demand positive, every
// execution-time distribution has finite parameters, and demands drawn
// as an invocation draws them run on a server at the lowest P-state, an
// hour into a run, and across a DVFS step, without a panic.
func FuzzParseSpec(f *testing.F) {
	finite := func(d sim.LogNormalDist) bool {
		mu, sigma := d.Params()
		return !math.IsNaN(mu) && !math.IsInf(mu, 0) && !math.IsNaN(sigma) && !math.IsInf(sigma, 0)
	}
	const draws = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		eng := sim.NewEngine(1)
		eng.RunFor(time.Hour)
		rng := sim.NewRNG(1)
		runs := func(where string, ms *Microservice, mean time.Duration, dist sim.LogNormalDist) {
			t.Helper()
			host := cluster.NewServer(eng, where, cluster.RoleNormalWorker, draws)
			host.SetFreq(cluster.FreqMin)
			for range draws {
				d := drawDemand(rng, ms, mean, dist)
				if d < 0 {
					t.Fatalf("%s: drew demand %v from %+v", where, d, dist)
				}
				host.Submit(&cluster.Job{Tag: ms.Name, Demand: d, Slowdown: ms.Slowdown()})
			}
			eng.RunFor(time.Millisecond)
			host.SetFreq(cluster.FreqMax)
		}
		for _, name := range s.RegionNames() {
			r := s.Region(name)
			for _, svc := range r.ServiceNames() {
				if w := r.Weight(svc); w < 0 {
					t.Fatalf("region %q: %q weighs %v", name, svc, w)
				}
			}
			if r.APIExec < 0 || !finite(r.apiExec) {
				t.Fatalf("region %q: API demand %v, distribution %+v", name, r.APIExec, r.apiExec)
			}
			runs(fmt.Sprintf("region %q API", name), r.api, r.APIExec, r.apiExec)
			for _, st := range r.Stages {
				for _, c := range st {
					if c.Exec <= 0 || c.Weight() < 0 || !finite(c.exec) {
						t.Fatalf("region %q call to %q: demand %v, distribution %+v", name, c.Service, c.Exec, c.exec)
					}
					runs(fmt.Sprintf("region %q call to %q", name, c.Service), c.callee, c.Exec, c.exec)
				}
			}
		}
		eng.RunFor(time.Hour)
	})
}
