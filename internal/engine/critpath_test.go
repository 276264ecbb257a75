package engine

import (
	"testing"
	"time"

	"servicefridge/internal/cluster"
)

// TestCritPathBlameTelescopes runs a real workload and checks the
// decomposition identity on executor-generated traces: per region, the
// summed response time equals dispatch time plus every service's blame.
func TestCritPathBlameTelescopes(t *testing.T) {
	cfg := quick(Config{Seed: 1, KeepSpans: true})
	res := Run(cfg)
	acc := res.CritPathBlame()
	if len(acc.Regions()) == 0 {
		t.Fatal("no regions observed")
	}
	for _, region := range acc.Regions() {
		rb := acc.Region(region)
		if rb.Requests == 0 {
			t.Fatalf("region %s: no requests", region)
		}
		var svcSum time.Duration
		for _, svc := range rb.Services() {
			svcSum += rb.Service(svc).Total()
		}
		if rb.Dispatch+svcSum != rb.Response {
			t.Fatalf("region %s: dispatch %v + services %v != response %v",
				region, rb.Dispatch, svcSum, rb.Response)
		}
		if rb.Dispatch <= 0 {
			t.Fatalf("region %s: no dispatch time despite 100µs network hops", region)
		}
	}
	// The API span opens every request, so it must appear on every
	// critical path of its region.
	a := acc.Region("A")
	api := a.Service("api-advanced-search")
	if api == nil {
		t.Fatal("API service missing from region A blame")
	}
	if api.Requests != a.Requests {
		t.Fatalf("API service on %d/%d critical paths", api.Requests, a.Requests)
	}
}

// TestCritPathBlameFreqInflation pins the frequency split: at full fixed
// frequency inflation is zero; throttled to 1.2GHz it is positive and
// Exec stays the frequency-neutral base.
func TestCritPathBlameFreqInflation(t *testing.T) {
	run := func(f cluster.GHz) *Result {
		return Run(quick(Config{
			Seed:      1,
			KeepSpans: true,
			FixedFreqs: map[string]cluster.GHz{
				"serverB": f, "serverC1": f, "serverC2": f, "serverC3": f,
			},
		}))
	}
	full := run(2.4).CritPathBlame()
	slow := run(1.2).CritPathBlame()
	var fullInfl, slowInfl, slowExec time.Duration
	for _, region := range full.Regions() {
		rb := full.Region(region)
		for _, svc := range rb.Services() {
			fullInfl += rb.Service(svc).FreqInflation
		}
	}
	for _, region := range slow.Regions() {
		rb := slow.Region(region)
		for _, svc := range rb.Services() {
			slowInfl += rb.Service(svc).FreqInflation
			slowExec += rb.Service(svc).Exec
		}
	}
	if fullInfl != 0 {
		t.Fatalf("inflation at 2.4GHz = %v, want 0", fullInfl)
	}
	if slowInfl <= 0 {
		t.Fatal("no frequency inflation at 1.2GHz")
	}
	if slowExec <= 0 {
		t.Fatal("no base execution time at 1.2GHz")
	}
}

// TestCritPathBlameDeterministic reruns the same configuration and
// compares every accumulated quantity.
func TestCritPathBlameDeterministic(t *testing.T) {
	cfg := quick(Config{Seed: 7, KeepSpans: true})
	a := Run(cfg).CritPathBlame()
	b := Run(cfg).CritPathBlame()
	for _, region := range a.Regions() {
		ra, rbb := a.Region(region), b.Region(region)
		if rbb == nil || ra.Requests != rbb.Requests || ra.Response != rbb.Response || ra.Dispatch != rbb.Dispatch {
			t.Fatalf("region %s diverged across identical runs", region)
		}
		for _, svc := range ra.Services() {
			x, y := ra.Service(svc), rbb.Service(svc)
			if y == nil || x.Queue != y.Queue || x.Exec != y.Exec ||
				x.FreqInflation != y.FreqInflation || x.Spans != y.Spans ||
				x.PerRequest.Quantile(0.95) != y.PerRequest.Quantile(0.95) {
				t.Fatalf("service %s blame diverged across identical runs", svc)
			}
		}
	}
}

// TestSlowdownFromSpec checks the adapter against the spec's own model.
func TestSlowdownFromSpec(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	fn := SlowdownFromSpec(cfg.Spec)
	svc := cfg.Spec.ServiceNames()[0]
	want := cfg.Spec.Service(svc).Slowdown().At(cluster.GHz(1.2))
	if got := fn(svc, 1.2); got != want {
		t.Fatalf("slowdown(%s, 1.2) = %v, want %v", svc, got, want)
	}
	if got := fn("not-a-service", 1.2); got != 1 {
		t.Fatalf("unknown service slowdown = %v, want 1", got)
	}
}
