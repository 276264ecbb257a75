package workload

import (
	"math"
	"testing"
	"time"

	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
)

// fakeLauncher completes every request after a fixed service time.
type fakeLauncher struct {
	eng     *sim.Engine
	service time.Duration
	byReg   map[string]int
	active  int
	maxAct  int
}

func newFakeLauncher(eng *sim.Engine, service time.Duration) *fakeLauncher {
	return &fakeLauncher{eng: eng, service: service, byReg: map[string]int{}}
}

func (f *fakeLauncher) Launch(region string, onDone func(*trace.Trace)) {
	f.byReg[region]++
	f.active++
	if f.active > f.maxAct {
		f.maxAct = f.active
	}
	f.eng.Schedule(f.service, func() {
		f.active--
		if onDone != nil {
			onDone(&trace.Trace{Region: region})
		}
	})
}

func TestMixSharesAndPick(t *testing.T) {
	m := Ratio(30, 20)
	if math.Abs(m.Share("A")-0.6) > 1e-9 || math.Abs(m.Share("B")-0.4) > 1e-9 {
		t.Fatalf("shares wrong: %v %v", m.Share("A"), m.Share("B"))
	}
	if m.Share("C") != 0 {
		t.Fatal("unknown region share should be 0")
	}
	r := sim.NewRNG(5)
	counts := map[string]int{}
	n := 100000
	for i := 0; i < n; i++ {
		counts[m.Pick(r)]++
	}
	if math.Abs(float64(counts["A"])/float64(n)-0.6) > 0.01 {
		t.Fatalf("empirical A share %v, want ~0.6", float64(counts["A"])/float64(n))
	}
}

func TestMixDropsZeroWeights(t *testing.T) {
	m := Ratio(30, 0)
	if got := m.Regions(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("regions = %v, want [A]", got)
	}
	r := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		if m.Pick(r) != "A" {
			t.Fatal("zero-weight region picked")
		}
	}
}

func TestMixAllZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ratio(0, 0)
}

func TestClosedLoopMaintainsConcurrency(t *testing.T) {
	eng := sim.NewEngine(3)
	fl := newFakeLauncher(eng, 10*time.Millisecond)
	cl := NewClosedLoop(eng, fl, eng.RNG().Stream("w"), Ratio(1, 0))
	cl.SetWorkers(5)
	eng.RunUntil(sim.Time(time.Second))
	// 5 workers, 10ms service: 100 req/s/worker => ~500 total.
	if fl.maxAct > 5 {
		t.Fatalf("max concurrent = %d, want <= 5", fl.maxAct)
	}
	got := cl.Launched()
	if got < 480 || got > 520 {
		t.Fatalf("launched %d, want ~500", got)
	}
}

func TestClosedLoopShrinkAndGrow(t *testing.T) {
	eng := sim.NewEngine(3)
	fl := newFakeLauncher(eng, 10*time.Millisecond)
	cl := NewClosedLoop(eng, fl, eng.RNG().Stream("w"), Ratio(1, 0))
	cl.SetWorkers(10)
	eng.RunUntil(sim.Time(500 * time.Millisecond))
	cl.SetWorkers(2)
	eng.RunUntil(sim.Time(600 * time.Millisecond))
	fl.maxAct = 0 // reset; observe steady state after shrink
	eng.RunUntil(sim.Time(time.Second))
	if fl.maxAct > 2 {
		t.Fatalf("after shrink max concurrent = %d, want <= 2", fl.maxAct)
	}
	cl.SetWorkers(8)
	fl.maxAct = 0
	eng.RunUntil(sim.Time(1500 * time.Millisecond))
	if fl.maxAct != 8 {
		t.Fatalf("after grow max concurrent = %d, want 8", fl.maxAct)
	}
}

func TestClosedLoopStop(t *testing.T) {
	eng := sim.NewEngine(3)
	fl := newFakeLauncher(eng, 10*time.Millisecond)
	cl := NewClosedLoop(eng, fl, eng.RNG().Stream("w"), Ratio(1, 0))
	cl.SetWorkers(3)
	eng.RunUntil(sim.Time(100 * time.Millisecond))
	cl.Stop()
	eng.RunUntil(sim.Time(200 * time.Millisecond))
	after := cl.Launched()
	eng.RunUntil(sim.Time(time.Second))
	if cl.Launched() != after {
		t.Fatal("workers kept launching after Stop")
	}
}

// observingLauncher wraps a Launcher the way a scheme does to feed its
// request counters (fridge.WrapLauncher): it sees every request start.
type observingLauncher struct {
	Launcher
	onLaunch func(region string)
}

func (o observingLauncher) Launch(region string, onDone func(*trace.Trace)) {
	o.onLaunch(region)
	o.Launcher.Launch(region, onDone)
}

// TestClosedLoopOnLaunchObserver: request starts are observed by wrapping
// the pool's launcher, so the wrapper must see every launch exactly once,
// in the mix's regions only.
func TestClosedLoopOnLaunchObserver(t *testing.T) {
	eng := sim.NewEngine(3)
	fl := newFakeLauncher(eng, 10*time.Millisecond)
	var observed int
	obs := observingLauncher{Launcher: fl, onLaunch: func(region string) {
		if region != "A" && region != "B" {
			t.Fatalf("unexpected region %s", region)
		}
		observed++
	}}
	cl := NewClosedLoop(eng, obs, eng.RNG().Stream("w"), Ratio(30, 20))
	cl.SetWorkers(4)
	eng.RunUntil(sim.Time(time.Second))
	if uint64(observed) != cl.Launched() {
		t.Fatalf("observed %d launches, launcher counted %d", observed, cl.Launched())
	}
}

func TestClosedLoopMixSplit(t *testing.T) {
	eng := sim.NewEngine(3)
	fl := newFakeLauncher(eng, time.Millisecond)
	cl := NewClosedLoop(eng, fl, eng.RNG().Stream("w"), Ratio(30, 20))
	cl.SetWorkers(10)
	eng.RunUntil(sim.Time(time.Second))
	frac := float64(fl.byReg["A"]) / float64(fl.byReg["A"]+fl.byReg["B"])
	if math.Abs(frac-0.6) > 0.03 {
		t.Fatalf("A fraction %v, want ~0.6", frac)
	}
}

func TestOpenLoopRate(t *testing.T) {
	eng := sim.NewEngine(9)
	fl := newFakeLauncher(eng, time.Millisecond)
	ol := NewOpenLoop(eng, fl, eng.RNG().Stream("w"), Ratio(1, 0))
	ol.SetRate(200)
	eng.RunUntil(sim.Time(10 * time.Second))
	got := float64(ol.Launched()) / 10
	if math.Abs(got-200) > 15 {
		t.Fatalf("rate %v req/s, want ~200", got)
	}
}

func TestOpenLoopPauseAndRateChange(t *testing.T) {
	eng := sim.NewEngine(9)
	fl := newFakeLauncher(eng, time.Millisecond)
	ol := NewOpenLoop(eng, fl, eng.RNG().Stream("w"), Ratio(1, 0))
	ol.SetRate(100)
	eng.RunUntil(sim.Time(time.Second))
	ol.SetRate(0)
	atPause := ol.Launched()
	eng.RunUntil(sim.Time(2 * time.Second))
	if ol.Launched() != atPause {
		t.Fatal("generator kept launching while paused")
	}
	ol.SetRate(400)
	eng.RunUntil(sim.Time(3 * time.Second))
	delta := ol.Launched() - atPause
	if delta < 350 || delta > 450 {
		t.Fatalf("after resume launched %d in 1s, want ~400", delta)
	}
}

func TestScheduleAppliesPhases(t *testing.T) {
	eng := sim.NewEngine(3)
	fl := newFakeLauncher(eng, time.Millisecond)
	cl := NewClosedLoop(eng, fl, eng.RNG().Stream("w"), Ratio(1, 0))
	// The paper's Figure 13 pattern: low(5) / medium(15) / high(25).
	total := cl.Schedule([]Phase{
		{Duration: 60 * time.Second, Workers: 5},
		{Duration: 60 * time.Second, Workers: 15},
		{Duration: 60 * time.Second, Workers: 25},
	})
	if total != 180*time.Second {
		t.Fatalf("schedule length %v, want 180s", total)
	}
	eng.RunUntil(sim.Time(30 * time.Second))
	if cl.Workers() != 5 {
		t.Fatalf("phase 1 workers = %d, want 5", cl.Workers())
	}
	eng.RunUntil(sim.Time(90 * time.Second))
	if cl.Workers() != 15 {
		t.Fatalf("phase 2 workers = %d, want 15", cl.Workers())
	}
	eng.RunUntil(sim.Time(170 * time.Second))
	if cl.Workers() != 25 {
		t.Fatalf("phase 3 workers = %d, want 25", cl.Workers())
	}
}

func TestScheduleMixSwitch(t *testing.T) {
	eng := sim.NewEngine(3)
	fl := newFakeLauncher(eng, time.Millisecond)
	cl := NewClosedLoop(eng, fl, eng.RNG().Stream("w"), Ratio(1, 0))
	cl.Schedule([]Phase{
		{Duration: time.Second, Workers: 5},
		{Duration: time.Second, Workers: 5, Mix: Ratio(0, 1)},
	})
	eng.RunUntil(sim.Time(time.Second))
	fl.byReg = map[string]int{}
	eng.RunUntil(sim.Time(2 * time.Second))
	if fl.byReg["A"] != 0 {
		t.Fatalf("phase 2 still launched %d A requests", fl.byReg["A"])
	}
	if fl.byReg["B"] == 0 {
		t.Fatal("phase 2 launched no B requests")
	}
}

// nopLauncher drops every request.
type nopLauncher struct{}

func (nopLauncher) Launch(string, func(*trace.Trace)) {}

// recordingLauncher notes each launch's region and time.
type recordingLauncher struct {
	eng  *sim.Engine
	at   []sim.Time
	regs []string
}

func (l *recordingLauncher) Launch(region string, _ func(*trace.Trace)) {
	l.at = append(l.at, l.eng.Now())
	l.regs = append(l.regs, region)
}

// TestOpenLoopArrivalsZeroAllocs: one arrival handler serves a whole rate
// epoch, so steady arrivals allocate nothing.
func TestOpenLoopArrivalsZeroAllocs(t *testing.T) {
	eng := sim.NewEngine(9)
	ol := NewOpenLoop(eng, nopLauncher{}, eng.RNG().Stream("w"), Ratio(1, 1))
	ol.SetRate(1000)
	for i := 0; i < 100; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("an arrival allocated %.3f objects, want 0", allocs)
	}
	if ol.Launched() < 1100 {
		t.Fatalf("launched %d, want every step an arrival", ol.Launched())
	}
}

// TestOpenLoopDrawOrder pins the generator's draws: the first gap, then
// per arrival the region pick followed by the next gap, across a rate
// change.
func TestOpenLoopDrawOrder(t *testing.T) {
	eng := sim.NewEngine(9)
	l := &recordingLauncher{eng: eng}
	mix := Ratio(1, 2)
	ol := NewOpenLoop(eng, l, eng.RNG().Stream("w"), mix)
	ol.SetRate(100)
	eng.RunUntil(sim.Time(time.Second))
	ol.SetRate(300)
	eng.RunUntil(sim.Time(2 * time.Second))

	ref := sim.NewEngine(9).RNG().Stream("w")
	var at sim.Time
	gap := func(rate float64) {
		mean := time.Duration(float64(time.Second) / rate)
		at += sim.Time(time.Duration(ref.Exp(float64(mean))))
	}
	var wantAt []sim.Time
	var wantRegs []string
	for _, phase := range []struct {
		rate float64
		end  sim.Time
	}{{100, sim.Time(time.Second)}, {300, sim.Time(2 * time.Second)}} {
		if phase.rate == 300 {
			at = sim.Time(time.Second)
		}
		gap(phase.rate)
		for at <= phase.end {
			wantAt = append(wantAt, at)
			wantRegs = append(wantRegs, mix.Pick(ref))
			gap(phase.rate)
		}
	}
	if len(l.at) != len(wantAt) {
		t.Fatalf("%d arrivals, replay gives %d", len(l.at), len(wantAt))
	}
	for i := range wantAt {
		if l.at[i] != wantAt[i] || l.regs[i] != wantRegs[i] {
			t.Fatalf("arrival %d: %v %s, replay %v %s", i, l.at[i], l.regs[i], wantAt[i], wantRegs[i])
		}
	}
}
