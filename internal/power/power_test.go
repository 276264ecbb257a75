package power

import (
	"math"
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

func TestModelCalibration(t *testing.T) {
	m := DefaultModel()
	if got := m.Power(cluster.FreqMax, 1.0); math.Abs(float64(got-100)) > 1e-9 {
		t.Fatalf("full power = %v, want 100W nameplate", got)
	}
	if got := m.Power(cluster.FreqMax, 0); math.Abs(float64(got-45)) > 1e-9 {
		t.Fatalf("idle power = %v, want 45W", got)
	}
	if got := m.Power(cluster.FreqMin, 0); math.Abs(float64(got-45)) > 1e-9 {
		t.Fatalf("idle power at fmin = %v, want 45W (idle is freq-independent)", got)
	}
}

func TestModelMonotoneInFreqAndUtil(t *testing.T) {
	m := DefaultModel()
	prev := Watts(0)
	for _, f := range cluster.PStates() {
		p := m.Power(f, 1.0)
		if p < prev {
			t.Fatalf("power not monotone in frequency at %v", f)
		}
		prev = p
	}
	for u := 0.0; u <= 1.0; u += 0.1 {
		if m.Power(2.0, u) > m.Power(2.0, u+0.1) {
			t.Fatalf("power not monotone in utilization at u=%v", u)
		}
	}
}

func TestModelClampsUtil(t *testing.T) {
	m := DefaultModel()
	if m.Power(2.4, -1) != m.Power(2.4, 0) {
		t.Fatal("negative util should clamp to 0")
	}
	if m.Power(2.4, 2) != m.Power(2.4, 1) {
		t.Fatal("util > 1 should clamp to 1")
	}
}

func TestDynamicComponent(t *testing.T) {
	m := DefaultModel()
	if got := m.Dynamic(cluster.FreqMax, 1.0); math.Abs(float64(got-55)) > 1e-9 {
		t.Fatalf("max dynamic = %v, want 55W", got)
	}
	if m.MaxDynamic() != 55 {
		t.Fatalf("MaxDynamic = %v, want 55", m.MaxDynamic())
	}
	if got := m.Dynamic(cluster.FreqMax, 0); got != 0 {
		t.Fatalf("idle dynamic = %v, want 0", got)
	}
}

func TestCubicScaling(t *testing.T) {
	m := DefaultModel()
	// At half frequency the dynamic component should be 1/8.
	half := m.Dynamic(1.2, 1.0)
	full := m.Dynamic(2.4, 1.0)
	if math.Abs(float64(half)/float64(full)-0.125) > 1e-9 {
		t.Fatalf("dynamic at fmin/fmax ratio = %v, want 0.125", float64(half)/float64(full))
	}
}

func TestBudgetArithmetic(t *testing.T) {
	m := DefaultModel()
	b := NewBudget(m, 5, 0.8)
	if got := b.MaxPower(); math.Abs(float64(got-500)) > 1e-9 {
		t.Fatalf("max power = %v, want 500W", got)
	}
	if got := b.Cap(); math.Abs(float64(got-400)) > 1e-9 {
		t.Fatalf("cap = %v, want 400W", got)
	}
	if !b.Violated(401) || b.Violated(399) {
		t.Fatal("violation detection wrong")
	}
}

func TestBudgetClampsFraction(t *testing.T) {
	m := DefaultModel()
	if b := NewBudget(m, 1, -0.5); b.Fraction <= 0 {
		t.Fatal("fraction not clamped up")
	}
	if b := NewBudget(m, 1, 1.5); b.Fraction != 1 {
		t.Fatal("fraction not clamped to 1")
	}
}

func buildBusyCluster(t *testing.T) (*sim.Engine, *cluster.Cluster) {
	t.Helper()
	eng := sim.NewEngine(7)
	cl := cluster.New(eng)
	s1 := cl.AddServer("n1", cluster.RoleNormalWorker, 2)
	s2 := cl.AddServer("n2", cluster.RoleNormalWorker, 2)
	// n1 is fully busy with service "a"; n2 half busy with "b".
	submitLoop := func(s *cluster.Server, tag string, period time.Duration) {
		var loop func()
		loop = func() {
			s.Submit(&cluster.Job{Tag: tag, Demand: period, OnDone: loop})
		}
		loop()
	}
	submitLoop(s1, "a", 10*time.Millisecond)
	submitLoop(s1, "a", 10*time.Millisecond)
	submitLoop(s2, "b", 10*time.Millisecond)
	return eng, cl
}

func TestMeterSamplesUtilAndPower(t *testing.T) {
	eng, cl := buildBusyCluster(t)
	m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
	m.Start()
	eng.RunUntil(sim.Time(time.Second))
	m.Stop()

	if len(m.ClusterSamples()) != 10 {
		t.Fatalf("got %d cluster samples, want 10", len(m.ClusterSamples()))
	}
	n1 := m.ServerSeries("n1")
	if len(n1) != 10 {
		t.Fatalf("got %d n1 samples, want 10", len(n1))
	}
	for _, s := range n1 {
		if math.Abs(s.Util-1.0) > 1e-9 {
			t.Fatalf("n1 util = %v, want 1.0", s.Util)
		}
		if math.Abs(float64(s.Power-100)) > 1e-9 {
			t.Fatalf("n1 power = %v, want 100W", s.Power)
		}
	}
	for _, s := range m.ServerSeries("n2") {
		if math.Abs(s.Util-0.5) > 1e-9 {
			t.Fatalf("n2 util = %v, want 0.5", s.Util)
		}
	}
}

func TestMeterTagAttribution(t *testing.T) {
	eng, cl := buildBusyCluster(t)
	m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
	m.Start()
	eng.RunUntil(sim.Time(time.Second))

	aSeries := m.TagPowerSeries("a")
	bSeries := m.TagPowerSeries("b")
	if len(aSeries) != 10 || len(bSeries) != 10 {
		t.Fatalf("series lengths %d/%d, want 10/10", len(aSeries), len(bSeries))
	}
	// Service a: full dynamic power of n1 = 55W. Service b: half of n2's
	// dynamic headroom = 27.5W.
	if math.Abs(float64(aSeries[0].Power-55)) > 1e-6 {
		t.Fatalf("a power = %v, want 55W", aSeries[0].Power)
	}
	if math.Abs(float64(bSeries[0].Power-27.5)) > 1e-6 {
		t.Fatalf("b power = %v, want 27.5W", bSeries[0].Power)
	}
}

func TestMeterAggregates(t *testing.T) {
	eng, cl := buildBusyCluster(t)
	m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
	m.Start()
	eng.RunUntil(sim.Time(time.Second))

	// Steady state: dynamic = 55 (n1) + 27.5 (n2) = 82.5W every window.
	if got := m.MeanDynamic(); math.Abs(float64(got-82.5)) > 1e-6 {
		t.Fatalf("mean dynamic = %v, want 82.5W", got)
	}
	if got := m.PeakDynamic(); math.Abs(float64(got-82.5)) > 1e-6 {
		t.Fatalf("peak dynamic = %v, want 82.5W", got)
	}
	if got := m.DynamicRange(); math.Abs(float64(got)) > 1e-6 {
		t.Fatalf("dynamic range = %v, want 0 in steady state", got)
	}
	last, ok := m.LastCluster()
	if !ok || math.Abs(float64(last.Total-(100+72.5))) > 1e-6 {
		t.Fatalf("last cluster total = %v ok=%v, want 172.5W", last.Total, ok)
	}
}

func TestMeterStartIdempotentAndStop(t *testing.T) {
	eng, cl := buildBusyCluster(t)
	m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
	m.Start()
	m.Start()
	eng.RunUntil(sim.Time(300 * time.Millisecond))
	m.Stop()
	n := len(m.ClusterSamples())
	if n != 3 {
		t.Fatalf("got %d samples, want 3 (double Start must not double-sample)", n)
	}
	eng.RunUntil(sim.Time(time.Second))
	if len(m.ClusterSamples()) != n {
		t.Fatal("meter kept sampling after Stop")
	}
}

func TestMeterEmptyBeforeFirstWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng)
	cl.AddServer("n1", cluster.RoleNormalWorker, 1)
	m := NewMeter(cl, DefaultModel(), time.Second)
	m.Start()
	if _, ok := m.LastCluster(); ok {
		t.Fatal("LastCluster should report false before first sample")
	}
	if m.MeanDynamic() != 0 || m.DynamicRange() != 0 {
		t.Fatal("aggregates over no samples should be 0")
	}
}

// TestLoadsIntoRoundTrip: a window's utilization u at frequency f reads as
// u·f/FreqMax load, and Predict at f turns that load back into the
// metered draw. Before the first window closes every server reads 1.
func TestLoadsIntoRoundTrip(t *testing.T) {
	eng, cl := buildBusyCluster(t)
	cl.Server("n1").SetFreq(cluster.FreqMin)
	m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
	m.Start()
	loads := make([]float64, cl.Size())
	m.LoadsInto(loads)
	if loads[0] != 1 || loads[1] != 1 {
		t.Fatalf("unsampled loads = %v, want [1 1]", loads)
	}
	eng.RunUntil(sim.Time(time.Second))
	m.LoadsInto(loads)
	// n1: util 1 at 1.2 GHz; n2: util 0.5 at FreqMax. Each carries half
	// a FreqMax core per core.
	for i := range loads {
		if math.Abs(loads[i]-0.5) > 1e-9 {
			t.Fatalf("load[%d] = %v, want 0.5", i, loads[i])
		}
		smp, ok := m.LastServer(i)
		if !ok {
			t.Fatalf("server %d unsampled after a window", i)
		}
		if got := m.Model().Predict(loads[i], smp.Freq); math.Abs(float64(got-smp.Power)) > 1e-9 {
			t.Fatalf("Predict(%v, %v) = %v, want the metered %v", loads[i], smp.Freq, got, smp.Power)
		}
	}
}

// TestLoadsIntoQueueAware: a backlogged server reads 1 whatever its
// measured utilization at its current frequency — here a full server at
// FreqMin, which the normalization alone would read as 0.5.
func TestLoadsIntoQueueAware(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng)
	srv := cl.AddServer("n1", cluster.RoleNormalWorker, 2)
	srv.SetFreq(cluster.FreqMin)
	m := NewMeter(cl, DefaultModel(), 100*time.Millisecond)
	m.Start()
	for i := 0; i < srv.Cores()+5; i++ {
		srv.Submit(&cluster.Job{Tag: "x", Demand: 10 * time.Second})
	}
	eng.RunUntil(sim.Time(time.Second))
	loads := make([]float64, 1)
	m.LoadsInto(loads)
	if loads[0] != 1 {
		t.Fatalf("backlogged server load = %v, want 1", loads[0])
	}
}

func TestPredictClampsUtil(t *testing.T) {
	m := DefaultModel()
	// Load 1.0 at the lowest frequency: utilization clamps to 1.
	if got := m.Predict(1.0, cluster.FreqMin); math.Abs(float64(got-m.PeakAt(cluster.FreqMin))) > 1e-9 {
		t.Fatalf("Predict = %v, want peak at fmin %v", got, m.PeakAt(cluster.FreqMin))
	}
	// Half a FreqMax core per core fills a server at half frequency.
	if got := m.Predict(0.5, cluster.FreqMin); got != m.Power(cluster.FreqMin, 1) {
		t.Fatalf("Predict(0.5, fmin) = %v, want %v", got, m.Power(cluster.FreqMin, 1))
	}
}
