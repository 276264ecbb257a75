package app

import (
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
)

// zeroJitterStudy returns the study spec with all jitter removed so that
// timing assertions are exact.
func zeroJitterStudy() *Spec {
	s := NewSpec()
	s.AddService(Microservice{Name: "api-advanced-search", Kind: KindAPI})
	s.AddService(Microservice{Name: "api-basic-ticketing", Kind: KindAPI})
	for _, m := range studyServices {
		m.Jitter = 0
		s.AddService(m)
	}
	src := TwoRegionStudy()
	for _, rn := range src.RegionNames() {
		s.AddRegion(*src.Region(rn))
	}
	return s
}

// PlacementFunc adapts a function to the Placement interface.
type PlacementFunc func(service string) *cluster.Server

// Route implements Placement.
func (f PlacementFunc) Route(service string) func() *cluster.Server {
	return func() *cluster.Server { return f(service) }
}

// onePlacement places every service on the single given server.
func onePlacement(srv *cluster.Server) Placement {
	return PlacementFunc(func(string) *cluster.Server { return srv })
}

func newTestExecutor(t *testing.T, spec *Spec, cores int) (*sim.Engine, *Executor, *cluster.Server) {
	t.Helper()
	eng := sim.NewEngine(42)
	srv := cluster.NewServer(eng, "n1", cluster.RoleNormalWorker, cores)
	col := trace.NewCollector()
	x := NewExecutor(eng, spec, onePlacement(srv), col, eng.RNG().Stream("exec"))
	x.NetDelay = 0
	return eng, x, srv
}

func TestRequestBCompletesWithExpectedSpans(t *testing.T) {
	spec := zeroJitterStudy()
	eng, x, _ := newTestExecutor(t, spec, 8)
	var done *trace.Trace
	x.Launch("B", func(tr *trace.Trace) { done = tr })
	eng.Run()
	if done == nil {
		t.Fatal("request did not complete")
	}
	// Spans: 1 API + 2 ticketinfo + 2 basic + 2 station + 1 route = 8.
	if len(done.Spans) != 8 {
		t.Fatalf("got %d spans, want 8", len(done.Spans))
	}
	if done.CallCount("ticketinfo") != 2 || done.CallCount("route") != 1 {
		t.Fatal("call counts wrong")
	}
	// No contention, zero jitter: response = 3 (api) + max(8.2, 5.6)
	// sequential per call... ticketinfo 2 serial calls at 4.1 = 8.2ms,
	// basic 5.6ms run in parallel on 8 cores -> stage1 8.2ms. Stage2:
	// station 2.4ms vs route 1.4ms -> 2.4ms. Total 13.6ms.
	want := 13600 * time.Microsecond
	if diff := done.Response() - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("response = %v, want %v (±1µs)", done.Response(), want)
	}
}

func TestRequestACallCountsMatchTable4(t *testing.T) {
	spec := zeroJitterStudy()
	eng, x, _ := newTestExecutor(t, spec, 64)
	var done *trace.Trace
	x.Launch("A", func(tr *trace.Trace) { done = tr })
	eng.Run()
	if done == nil {
		t.Fatal("request did not complete")
	}
	wantCT := map[string]int{
		"ticketinfo": 44, "basic": 44, "station": 70, "route": 34,
		"seat": 16, "travel": 10, "config": 16, "train": 24,
	}
	for svc, ct := range wantCT {
		if got := done.CallCount(svc); got != ct {
			t.Fatalf("CT[%s] = %d, want %d", svc, got, ct)
		}
	}
	if done.CallCount("api-advanced-search") != 1 {
		t.Fatal("API span missing")
	}
}

func TestStagesAreSequential(t *testing.T) {
	spec := zeroJitterStudy()
	eng, x, _ := newTestExecutor(t, spec, 64)
	var done *trace.Trace
	x.Launch("A", func(tr *trace.Trace) { done = tr })
	eng.Run()
	// Every stage-2 span (station/route) must start at or after every
	// stage-1 span (ticketinfo/basic) ends.
	var stage1End sim.Time
	for _, s := range done.Spans {
		if s.Service == "ticketinfo" || s.Service == "basic" {
			if s.End > stage1End {
				stage1End = s.End
			}
		}
	}
	for _, s := range done.Spans {
		if s.Service == "station" || s.Service == "route" {
			if s.Submit < stage1End {
				t.Fatalf("stage 2 span submitted at %v before stage 1 finished at %v",
					s.Submit, stage1End)
			}
		}
	}
}

func TestConcurrencyBoundRespected(t *testing.T) {
	spec := NewSpec()
	spec.AddService(Microservice{Name: "api", Kind: KindAPI})
	spec.AddService(Microservice{Name: "f", Kind: KindFunction})
	spec.AddRegion(Region{
		Name: "r", API: "api", APIExec: time.Millisecond,
		Stages: []Stage{{{Service: "f", Times: 10, Exec: 5 * time.Millisecond, Concurrency: 2}}},
	})
	eng, x, srv := newTestExecutor(t, spec, 64)
	maxInFlight := 0
	eng.Every(time.Millisecond, func() {
		if n := srv.InFlight(); n > maxInFlight {
			maxInFlight = n
		}
	})
	x.Launch("r", nil)
	eng.RunUntil(sim.Time(100 * time.Millisecond))
	if maxInFlight > 2 {
		t.Fatalf("observed %d concurrent f jobs, concurrency bound is 2", maxInFlight)
	}
	if x.Completed() != 1 {
		t.Fatal("request did not complete")
	}
}

func TestQueueingDelaysResponse(t *testing.T) {
	// Two simultaneous B requests on a 1-core server must serialize.
	spec := zeroJitterStudy()
	eng, x, _ := newTestExecutor(t, spec, 1)
	var responses []time.Duration
	x.Launch("B", func(tr *trace.Trace) { responses = append(responses, tr.Response()) })
	x.Launch("B", func(tr *trace.Trace) { responses = append(responses, tr.Response()) })
	eng.Run()
	if len(responses) != 2 {
		t.Fatalf("completed %d, want 2", len(responses))
	}
	solo := 16600 * time.Microsecond // serialized single request: 3+8.2+5.6+2.4+1.4 ... bounded below by sum of exec
	if responses[1] <= solo {
		t.Fatalf("contended response %v should exceed serialized solo %v", responses[1], solo)
	}
}

func TestNetDelayAddsLatency(t *testing.T) {
	spec := zeroJitterStudy()
	engA, xA, _ := newTestExecutor(t, spec, 8)
	var respA time.Duration
	xA.Launch("B", func(tr *trace.Trace) { respA = tr.Response() })
	engA.Run()

	engB := sim.NewEngine(42)
	srvB := cluster.NewServer(engB, "n1", cluster.RoleNormalWorker, 8)
	colB := trace.NewCollector()
	xB := NewExecutor(engB, spec, onePlacement(srvB), colB, engB.RNG().Stream("exec"))
	xB.NetDelay = time.Millisecond
	var respB time.Duration
	xB.Launch("B", func(tr *trace.Trace) { respB = tr.Response() })
	engB.Run()

	if respB <= respA {
		t.Fatalf("net delay did not add latency: %v vs %v", respB, respA)
	}
}

func TestFrequencyAffectsWholeRequest(t *testing.T) {
	spec := zeroJitterStudy()
	eng, x, srv := newTestExecutor(t, spec, 8)
	srv.SetFreq(1.2)
	var slow time.Duration
	x.Launch("B", func(tr *trace.Trace) { slow = tr.Response() })
	eng.Run()

	eng2, x2, _ := newTestExecutor(t, spec, 8)
	var fast time.Duration
	x2.Launch("B", func(tr *trace.Trace) { fast = tr.Response() })
	eng2.Run()
	if slow <= fast {
		t.Fatalf("1.2GHz response %v should exceed 2.4GHz response %v", slow, fast)
	}
}

func TestLaunchUnknownRegionPanics(t *testing.T) {
	spec := zeroJitterStudy()
	_, x, _ := newTestExecutor(t, spec, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Launch("nope", nil)
}

func TestUnplacedServicePanics(t *testing.T) {
	spec := zeroJitterStudy()
	eng := sim.NewEngine(1)
	col := trace.NewCollector()
	x := NewExecutor(eng, spec, PlacementFunc(func(string) *cluster.Server { return nil }), col, eng.RNG().Stream("e"))
	x.NetDelay = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Launch("B", nil)
	eng.Run()
}

func TestManyRequestsAllComplete(t *testing.T) {
	spec := TwoRegionStudy() // with jitter
	eng := sim.NewEngine(7)
	srv := cluster.NewServer(eng, "n1", cluster.RoleNormalWorker, 24)
	col := trace.NewCollector()
	x := NewExecutor(eng, spec, onePlacement(srv), col, eng.RNG().Stream("exec"))
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		eng.Schedule(at, func() { x.Launch("B", nil) })
	}
	eng.Run()
	if x.Completed() != 50 {
		t.Fatalf("completed %d, want 50", x.Completed())
	}
	if col.Open() != 0 {
		t.Fatalf("%d traces still open", col.Open())
	}
	if col.Count("B") != 50 {
		t.Fatalf("collector has %d B traces, want 50", col.Count("B"))
	}
}

// TestRequestZeroAllocs: with the executor's pools and the collector's
// stores warm, one whole region-A request (259 invocations: network hops,
// placements, jobs on a contended server, spans) allocates nothing.
func TestRequestZeroAllocs(t *testing.T) {
	spec := TwoRegionStudy()
	eng := sim.NewEngine(1)
	srv := cluster.NewServer(eng, "n1", cluster.RoleNormalWorker, 6)
	col := trace.NewCollector()
	col.KeepSpans = false
	x := NewExecutor(eng, spec, onePlacement(srv), col, eng.RNG().Stream("exec"))
	x.Launch("A", nil)
	eng.Run()
	col.Grow(1000)
	allocs := testing.AllocsPerRun(100, func() {
		x.Launch("A", nil)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("one request allocated %.3f objects, want 0", allocs)
	}
}
