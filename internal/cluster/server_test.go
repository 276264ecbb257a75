package cluster

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"servicefridge/internal/sim"
)

func TestPStatesLadder(t *testing.T) {
	ps := PStates()
	if len(ps) != 13 {
		t.Fatalf("got %d P-states, want 13", len(ps))
	}
	if ps[0] != FreqMin || ps[len(ps)-1] != FreqMax {
		t.Fatalf("ladder endpoints wrong: %v..%v", ps[0], ps[len(ps)-1])
	}
	for i := 1; i < len(ps); i++ {
		if math.Abs(float64(ps[i]-ps[i-1])-0.1) > 1e-9 {
			t.Fatalf("non-0.1 step between %v and %v", ps[i-1], ps[i])
		}
	}
}

func TestProfilePointsAreSeven(t *testing.T) {
	pp := ProfilePoints()
	if len(pp) != 7 {
		t.Fatalf("got %d profile points, want 7", len(pp))
	}
	if pp[0] != 1.2 || pp[6] != 2.4 {
		t.Fatalf("profile endpoints wrong: %v", pp)
	}
}

func TestClampFreq(t *testing.T) {
	cases := []struct{ in, want GHz }{
		{0.5, 1.2}, {1.2, 1.2}, {2.4, 2.4}, {3.0, 2.4},
		{1.84, 1.8}, {1.86, 1.9}, {2.0, 2.0},
	}
	for _, c := range cases {
		if got := ClampFreq(c.in); math.Abs(float64(got-c.want)) > 1e-9 {
			t.Fatalf("ClampFreq(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStepUpDown(t *testing.T) {
	if StepDown(1.2) != 1.2 {
		t.Fatal("StepDown below min should clamp")
	}
	if StepUp(2.4) != 2.4 {
		t.Fatal("StepUp above max should clamp")
	}
	if got := StepDown(2.0); math.Abs(float64(got)-1.9) > 1e-9 {
		t.Fatalf("StepDown(2.0) = %v", got)
	}
	if got := StepUp(1.5); math.Abs(float64(got)-1.6) > 1e-9 {
		t.Fatalf("StepUp(1.5) = %v", got)
	}
}

func TestClampIdempotentProperty(t *testing.T) {
	f := func(raw uint16) bool {
		g := GHz(float64(raw%400) / 100) // 0.00 .. 3.99
		c := ClampFreq(g)
		return c >= FreqMin && c <= FreqMax && ClampFreq(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearSlowdown(t *testing.T) {
	full := LinearSlowdown(1.0)
	if math.Abs(full(2.4)-1.0) > 1e-9 {
		t.Fatalf("full CPU slowdown at fmax = %v, want 1", full(2.4))
	}
	if math.Abs(full(1.2)-2.0) > 1e-9 {
		t.Fatalf("full CPU slowdown at 1.2 = %v, want 2", full(1.2))
	}
	none := LinearSlowdown(0)
	if math.Abs(none(1.2)-1.0) > 1e-9 {
		t.Fatalf("insensitive slowdown at 1.2 = %v, want 1", none(1.2))
	}
	half := LinearSlowdown(0.5)
	if math.Abs(half(1.2)-1.5) > 1e-9 {
		t.Fatalf("half slowdown at 1.2 = %v, want 1.5", half(1.2))
	}
}

func TestServerRunsJobAtFullSpeed(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 2)
	var doneAt sim.Time
	s.Submit(&Job{Tag: "svc", Demand: 10 * time.Millisecond,
		OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	if doneAt != sim.Time(10*time.Millisecond) {
		t.Fatalf("job finished at %v, want 10ms", doneAt)
	}
	if s.Completed() != 1 {
		t.Fatalf("completed = %d", s.Completed())
	}
}

func TestServerQueuesBeyondCores(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		s.Submit(&Job{Tag: "svc", Demand: 10 * time.Millisecond,
			OnDone: func() { ends = append(ends, eng.Now()) }})
	}
	if s.InFlight() != 1 || s.QueueLen() != 2 {
		t.Fatalf("inflight=%d queue=%d, want 1/2", s.InFlight(), s.QueueLen())
	}
	eng.Run()
	want := []sim.Time{sim.Time(10 * time.Millisecond), sim.Time(20 * time.Millisecond), sim.Time(30 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("FIFO completion %d at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestServerParallelCores(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 3)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		s.Submit(&Job{Tag: "svc", Demand: 10 * time.Millisecond,
			OnDone: func() { ends = append(ends, eng.Now()) }})
	}
	eng.Run()
	for _, e := range ends {
		if e != sim.Time(10*time.Millisecond) {
			t.Fatalf("parallel job ended at %v, want 10ms", e)
		}
	}
}

func TestFrequencyScalesServiceTime(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	s.SetFreq(1.2) // CPU-bound job takes 2x
	var doneAt sim.Time
	s.Submit(&Job{Tag: "svc", Demand: 10 * time.Millisecond,
		OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	if doneAt != sim.Time(20*time.Millisecond) {
		t.Fatalf("job at 1.2GHz finished at %v, want 20ms", doneAt)
	}
}

func TestMidFlightDVFSRescalesRemainingWork(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	var doneAt sim.Time
	s.Submit(&Job{Tag: "svc", Demand: 10 * time.Millisecond,
		OnDone: func() { doneAt = eng.Now() }})
	// After 5ms at 2.4GHz, half the demand is served. Dropping to 1.2GHz
	// doubles the remaining 5ms to 10ms: total 15ms.
	eng.Schedule(5*time.Millisecond, func() { s.SetFreq(1.2) })
	eng.Run()
	if doneAt != sim.Time(15*time.Millisecond) {
		t.Fatalf("job finished at %v, want 15ms", doneAt)
	}
}

func TestMidFlightDVFSSpeedUp(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	s.SetFreq(1.2)
	var doneAt sim.Time
	s.Submit(&Job{Tag: "svc", Demand: 10 * time.Millisecond,
		OnDone: func() { doneAt = eng.Now() }})
	// After 10ms at 1.2GHz, 5ms of demand served. Back to 2.4GHz: the
	// remaining 5ms runs in 5ms: total 15ms.
	eng.Schedule(10*time.Millisecond, func() { s.SetFreq(2.4) })
	eng.Run()
	if doneAt != sim.Time(15*time.Millisecond) {
		t.Fatalf("job finished at %v, want 15ms", doneAt)
	}
}

func TestInsensitiveJobIgnoresDVFS(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	s.SetFreq(1.2)
	var doneAt sim.Time
	s.Submit(&Job{Tag: "svc", Demand: 10 * time.Millisecond,
		Slowdown: LinearSlowdown(0),
		OnDone:   func() { doneAt = eng.Now() }})
	eng.Run()
	if doneAt != sim.Time(10*time.Millisecond) {
		t.Fatalf("insensitive job finished at %v, want 10ms", doneAt)
	}
}

func TestSetFreqSameValueIsNoop(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	s.SetFreq(2.4)
	if s.FreqChanges() != 0 {
		t.Fatal("no-op SetFreq counted as a transition")
	}
	s.SetFreq(1.8)
	s.SetFreq(1.8)
	if s.FreqChanges() != 1 {
		t.Fatalf("freqChanges = %d, want 1", s.FreqChanges())
	}
}

func TestBusyAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 2)
	s.Submit(&Job{Tag: "a", Demand: 10 * time.Millisecond})
	s.Submit(&Job{Tag: "b", Demand: 20 * time.Millisecond})
	eng.Run()
	if got := s.BusyCoreTime(); got != 30*time.Millisecond {
		t.Fatalf("busy total = %v, want 30ms", got)
	}
	if got := s.BusyCoreTimeByTag("a"); got != 10*time.Millisecond {
		t.Fatalf("busy[a] = %v, want 10ms", got)
	}
	if got := s.BusyCoreTimeByTag("b"); got != 20*time.Millisecond {
		t.Fatalf("busy[b] = %v, want 20ms", got)
	}
	if got := s.BusyCoreTimeByTag("absent"); got != 0 {
		t.Fatalf("busy[absent] = %v, want 0", got)
	}
}

func TestBusyAccountingAcrossDVFS(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	s.Submit(&Job{Tag: "a", Demand: 10 * time.Millisecond})
	eng.Schedule(5*time.Millisecond, func() { s.SetFreq(1.2) })
	eng.Run()
	// Busy wall-clock time: 5ms at 2.4 + 10ms at 1.2 = 15ms.
	if got := s.BusyCoreTime(); got != 15*time.Millisecond {
		t.Fatalf("busy total = %v, want 15ms", got)
	}
}

func TestUtilizationHelper(t *testing.T) {
	u := Utilization(30*time.Millisecond, 2, 30*time.Millisecond)
	if math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if Utilization(0, 2, 0) != 0 {
		t.Fatal("zero window should be 0")
	}
	if Utilization(100*time.Millisecond, 1, 10*time.Millisecond) != 1 {
		t.Fatal("utilization should clamp to 1")
	}
}

func TestOnStartFires(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	var startedAt []sim.Time
	for i := 0; i < 2; i++ {
		s.Submit(&Job{Tag: "a", Demand: 10 * time.Millisecond,
			OnStart: func() { startedAt = append(startedAt, eng.Now()) }})
	}
	eng.Run()
	if len(startedAt) != 2 || startedAt[0] != 0 || startedAt[1] != sim.Time(10*time.Millisecond) {
		t.Fatalf("starts = %v, want [0 10ms]", startedAt)
	}
}

func TestNegativeDemandPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Submit(&Job{Tag: "a", Demand: -time.Millisecond})
}

func TestClusterConstruction(t *testing.T) {
	eng := sim.NewEngine(1)
	c := DefaultTestbed(eng)
	if c.Size() != 5 {
		t.Fatalf("testbed size = %d, want 5", c.Size())
	}
	if c.TotalCores() != 30 {
		t.Fatalf("total cores = %d, want 30", c.TotalCores())
	}
	if c.Server("serverA").Role() != RoleManager {
		t.Fatal("serverA should be manager")
	}
	if c.Server("serverB").Role() != RolePowerWorker {
		t.Fatal("serverB should be power worker")
	}
	if c.Server("nope") != nil {
		t.Fatal("unknown server should be nil")
	}
	w := c.Workers()
	if len(w) != 5 || w[len(w)-1].Role() != RoleManager {
		t.Fatal("Workers should list manager last")
	}
}

func TestClusterDuplicateNamePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng)
	c.AddServer("x", RoleNormalWorker, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AddServer("x", RoleNormalWorker, 1)
}

func TestClusterSetAllFreq(t *testing.T) {
	eng := sim.NewEngine(1)
	c := DefaultTestbed(eng)
	c.SetAllFreq(1.6)
	for _, s := range c.Servers() {
		if s.Freq() != 1.6 {
			t.Fatalf("server %s at %v, want 1.6", s.Name(), s.Freq())
		}
	}
}

// Property: total busy time equals the sum of wall-clock service times of
// all jobs, regardless of queueing order and DVFS changes.
func TestBusyTimeConservationProperty(t *testing.T) {
	f := func(seed uint64, nJobs uint8) bool {
		n := int(nJobs%20) + 1
		eng := sim.NewEngine(seed)
		r := eng.RNG().Stream("jobs")
		s := NewServer(eng, "n1", RoleNormalWorker, 3)
		for i := 0; i < n; i++ {
			d := time.Duration(r.Intn(20)+1) * time.Millisecond
			at := time.Duration(r.Intn(50)) * time.Millisecond
			eng.Schedule(at, func() {
				s.Submit(&Job{Tag: "t", Demand: d})
			})
		}
		// Random DVFS changes.
		for i := 0; i < 5; i++ {
			at := time.Duration(r.Intn(80)) * time.Millisecond
			fi := GHz(1.2 + float64(r.Intn(13))/10)
			eng.Schedule(at, func() { s.SetFreq(fi) })
		}
		eng.Run()
		return s.Completed() == uint64(n) && s.BusyCoreTime() == s.BusyCoreTimeByTag("t")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSetMaxFreqClampsNowAndLater(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 2)
	if s.MaxFreq() != 0 {
		t.Fatalf("new server clamped at %v, want unclamped", s.MaxFreq())
	}
	s.SetMaxFreq(1.8)
	if s.Freq() != 1.8 {
		t.Fatalf("clamp did not lower the running frequency: %v", s.Freq())
	}
	s.SetFreq(2.4) // a scheme asking for more than the clamp allows
	if s.Freq() != 1.8 {
		t.Fatalf("SetFreq escaped the clamp: %v", s.Freq())
	}
	s.SetFreq(1.4) // below the clamp is honoured as-is
	if s.Freq() != 1.4 {
		t.Fatalf("SetFreq below the clamp = %v, want 1.4", s.Freq())
	}
	s.SetMaxFreq(0) // lifting the clamp re-opens the full ladder
	s.SetFreq(2.4)
	if s.Freq() != 2.4 {
		t.Fatalf("after lifting the clamp SetFreq(2.4) = %v", s.Freq())
	}
}

func TestMaxFreqSnapshotRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 2)
	s.SetMaxFreq(1.6)
	snap := s.Snapshot()
	s.SetMaxFreq(0)
	s.SetFreq(2.4)
	s.Restore(snap)
	if s.MaxFreq() != 1.6 || s.Freq() != 1.6 {
		t.Fatalf("restore lost the clamp: max=%v freq=%v", s.MaxFreq(), s.Freq())
	}
}

func TestClusterSetAllMaxFreq(t *testing.T) {
	eng := sim.NewEngine(1)
	c := DefaultTestbed(eng)
	c.SetAllMaxFreq(2.0)
	for _, s := range c.Servers() {
		if s.Freq() != 2.0 || s.MaxFreq() != 2.0 {
			t.Fatalf("server %s freq=%v max=%v, want 2.0/2.0", s.Name(), s.Freq(), s.MaxFreq())
		}
	}
}

// TestRecycledJobCompletesOnItsCurrentServer guards the job's cached
// completion handler: one Job runs on server A, then on server B, and a
// snapshot taken while it runs on B is restored after the job has moved
// back to A. The restored completion must land on B, so only B's
// completions and busy time move.
func TestRecycledJobCompletesOnItsCurrentServer(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewServer(eng, "A", RoleNormalWorker, 1)
	b := NewServer(eng, "B", RoleNormalWorker, 1)
	done := 0
	job := &Job{Tag: "svc", Demand: 10 * time.Millisecond, OnDone: func() { done++ }}
	a.Submit(job)
	eng.Run()
	b.Submit(job)
	eng.RunFor(5 * time.Millisecond)
	se, sa, sb := eng.Snapshot(), a.Snapshot(), b.Snapshot()

	// Detour: finish on B, then run the same job on A again.
	eng.Run()
	a.Submit(job)
	eng.Run()
	if a.Completed() != 2 || b.Completed() != 1 || done != 3 {
		t.Fatalf("detour: A=%d B=%d done=%d, want 2, 1, 3", a.Completed(), b.Completed(), done)
	}

	eng.Restore(se)
	a.Restore(sa)
	b.Restore(sb)
	done = 0
	eng.Run()
	if a.Completed() != 1 || a.BusyCoreTime() != 10*time.Millisecond {
		t.Fatalf("A moved after restore: completed=%d busy=%v, want 1 and 10ms", a.Completed(), a.BusyCoreTime())
	}
	if b.Completed() != 1 || b.BusyCoreTime() != 10*time.Millisecond {
		t.Fatalf("B after restore: completed=%d busy=%v, want 1 and 10ms", b.Completed(), b.BusyCoreTime())
	}
	if done != 1 || eng.Now() != sim.Time(20*time.Millisecond) {
		t.Fatalf("restored job: done=%d at %v, want 1 at 20ms", done, eng.Now())
	}
}
