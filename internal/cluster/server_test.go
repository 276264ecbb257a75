package cluster

import (
	"fmt"
	"math"
	"slices"
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
	if math.Abs(full.At(2.4)-1.0) > 1e-9 {
		t.Fatalf("full CPU slowdown at fmax = %v, want 1", full.At(2.4))
	}
	if math.Abs(full.At(1.2)-2.0) > 1e-9 {
		t.Fatalf("full CPU slowdown at 1.2 = %v, want 2", full.At(1.2))
	}
	none := LinearSlowdown(0)
	if math.Abs(none.At(1.2)-1.0) > 1e-9 {
		t.Fatalf("insensitive slowdown at 1.2 = %v, want 1", none.At(1.2))
	}
	half := LinearSlowdown(0.5)
	if math.Abs(half.At(1.2)-1.5) > 1e-9 {
		t.Fatalf("half slowdown at 1.2 = %v, want 1.5", half.At(1.2))
	}
	// The zero Slowdown is fully CPU-bound, bit for bit.
	if got, want := (Slowdown{}).At(1.2), float64(FreqMax)/1.2; got != want {
		t.Fatalf("zero slowdown at 1.2 = %v, want %v", got, want)
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

// TestStartedIsStartNotSubmit: a job records its own start. On one core,
// the second of two jobs submitted at 0 waits in the queue until the
// first completes, which a DVFS step at 5 ms delays to 15 ms, so its
// Started is 15 ms (not its submit) and its StartFreq is the stepped-down
// frequency; a job started again records the new start.
func TestStartedIsStartNotSubmit(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	type rec struct {
		done, started sim.Time
		freq          GHz
	}
	var recs []rec
	jobs := make([]*Job, 2)
	for i := range jobs {
		j := &Job{Tag: "a", Demand: 10 * time.Millisecond}
		j.OnDone = func() { recs = append(recs, rec{eng.Now(), j.Started(), j.StartFreq()}) }
		jobs[i] = j
		s.Submit(j)
	}
	eng.Schedule(5*time.Millisecond, func() { s.SetFreq(1.2) })
	eng.Run()
	want := []rec{
		{sim.Time(15 * time.Millisecond), 0, FreqMax},
		{sim.Time(35 * time.Millisecond), sim.Time(15 * time.Millisecond), 1.2},
	}
	if !slices.Equal(recs, want) {
		t.Fatalf("completions (done, started, start frequency) = %v, want %v", recs, want)
	}
	s.SetFreq(2.0)
	s.Submit(jobs[0])
	eng.Run()
	if got := recs[2]; got.started != sim.Time(35*time.Millisecond) || got.freq != 2.0 {
		t.Fatalf("restarted job recorded start %v at %v, want 35ms at 2GHz", got.started, got.freq)
	}
}

// TestJobFactorMatchesFreshFactor checks a job's factor against a fresh
// computation after every start and DVFS step: a recycled job given
// another Slowdown at the same frequency, a job started again at an
// unchanged P-state, and a job that ran across a SetFreq and then starts
// again at the frequency it began at. A factor carried over from the
// job's last start (say, one kept per frequency) fails it.
func TestJobFactorMatchesFreshFactor(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 1)
	j := &Job{Tag: "svc", Demand: 10 * time.Millisecond}
	check := func(step string) {
		t.Helper()
		want := j.Slowdown.At(s.Freq())
		if want < 1 {
			want = 1
		}
		if j.factor != want {
			t.Fatalf("%s: factor %v at %v, a fresh computation gives %v", step, j.factor, s.Freq(), want)
		}
	}
	start := func(sd Slowdown, step string) {
		t.Helper()
		j.Slowdown = sd
		s.Submit(j)
		check(step)
	}
	s.SetFreq(1.2)
	start(LinearSlowdown(1), "CPU-bound at 1.2 GHz")
	eng.Run()
	start(LinearSlowdown(0), "recycled as insensitive at 1.2 GHz")
	eng.Run()
	start(LinearSlowdown(0.5), "recycled at half share")
	eng.Run()
	start(LinearSlowdown(0.5), "started again at an unchanged P-state")
	eng.RunFor(2 * time.Millisecond)
	s.SetFreq(2.0)
	check("running across a step to 2 GHz")
	eng.Run()
	s.SetFreq(1.2)
	start(LinearSlowdown(0.5), "started again at 1.2 GHz after the step")
	eng.Run()
	start(Slowdown{}, "zero Slowdown at 1.2 GHz")
	eng.Run()
}

// TestJobTooLongForTheClock: a demand that fits a time.Duration can
// still overflow one as wall time, stretched at a low P-state, and a
// wall time that fits can carry the clock past its end. Either way the
// job is due at the end of time, which no bounded run reaches, and a
// DVFS step while it runs rescales it the same way.
func TestJobTooLongForTheClock(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.RunFor(time.Hour)
	s := NewServer(eng, "n1", RoleNormalWorker, 2)
	s.SetFreq(FreqMin)
	done := 0
	for _, demand := range []time.Duration{5e18, math.MaxInt64} {
		s.Submit(&Job{Tag: "long", Demand: demand, Slowdown: LinearSlowdown(1), OnDone: func() { done++ }})
	}
	eng.RunFor(time.Hour)
	s.SetFreq(FreqMax)
	eng.RunFor(time.Hour)
	if done != 0 || s.InFlight() != 2 {
		t.Fatalf("%d of two jobs too long for the clock completed, %d still running", done, s.InFlight())
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
	cores := 0
	for _, s := range c.Servers() {
		cores += s.Cores()
	}
	if cores != 30 {
		t.Fatalf("total cores = %d, want 30", cores)
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
// all jobs, regardless of queueing order and DVFS changes, and the per-tag
// times sum to it — also when read mid-run, while jobs of every tag are
// still in flight.
func TestBusyTimeConservationProperty(t *testing.T) {
	tags := []string{"t0", "t1", "t2"}
	conserved := func(s *Server) bool {
		var sum time.Duration
		for _, tag := range tags {
			sum += s.BusyCoreTimeByTag(tag)
		}
		return sum == s.BusyCoreTime()
	}
	f := func(seed uint64, nJobs uint8) bool {
		n := int(nJobs%20) + 1
		eng := sim.NewEngine(seed)
		r := eng.RNG().Stream("jobs")
		s := NewServer(eng, "n1", RoleNormalWorker, 3)
		for i := 0; i < n; i++ {
			d := time.Duration(r.Intn(20)+1) * time.Millisecond
			at := time.Duration(r.Intn(50)) * time.Millisecond
			tag := tags[r.Intn(len(tags))]
			eng.Schedule(at, func() {
				s.Submit(&Job{Tag: tag, Demand: d})
			})
		}
		// Random DVFS changes.
		for i := 0; i < 5; i++ {
			at := time.Duration(r.Intn(80)) * time.Millisecond
			fi := GHz(1.2 + float64(r.Intn(13))/10)
			eng.Schedule(at, func() { s.SetFreq(fi) })
		}
		ok := true
		for i := 0; i < 4; i++ {
			at := time.Duration(r.Intn(80))*time.Millisecond + time.Microsecond
			eng.Schedule(at, func() { ok = ok && conserved(s) })
		}
		eng.Run()
		return ok && s.Completed() == uint64(n) && conserved(s)
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

// TestServerSnapshotMidQueue snapshots a server whose queue is partly
// drained (jobs have left it, others still wait) with jobs in flight,
// diverges it with more submits and a DVFS change, and restores it. From
// there it must run exactly like an undiverged twin: the same completion
// order, queue lengths and total and per-tag busy time.
func TestServerSnapshotMidQueue(t *testing.T) {
	tags := []string{"a", "b", "c", "extra"}
	type rig struct {
		eng   *sim.Engine
		s     *Server
		order []int
	}
	build := func() *rig {
		r := &rig{eng: sim.NewEngine(1)}
		r.s = NewServer(r.eng, "n1", RoleNormalWorker, 2)
		for i := 0; i < 12; i++ {
			i := i
			j := &Job{Tag: tags[i%3], Demand: time.Duration(3+i%4) * time.Millisecond}
			j.OnDone = func() { r.order = append(r.order, i) }
			r.s.Submit(j)
		}
		r.eng.RunFor(7 * time.Millisecond)
		return r
	}
	twin, r := build(), build()
	if r.s.Completed() == 0 || r.s.QueueLen() == 0 || r.s.InFlight() == 0 {
		t.Fatalf("snapshot point has %d completed, %d queued and %d in flight; want all positive",
			r.s.Completed(), r.s.QueueLen(), r.s.InFlight())
	}
	se, ss, done := r.eng.Snapshot(), r.s.Snapshot(), len(r.order)

	for i := 0; i < 9; i++ {
		r.s.Submit(&Job{Tag: "extra", Demand: time.Millisecond})
	}
	r.s.SetFreq(1.2)
	r.eng.RunFor(15 * time.Millisecond)
	if len(r.order) == done {
		t.Fatal("the detour completed nothing")
	}

	r.eng.Restore(se)
	r.s.Restore(ss)
	r.order = r.order[:done]
	for step := 0; ; step++ {
		for _, x := range []*rig{r, twin} {
			x.eng.RunFor(2 * time.Millisecond)
		}
		if r.s.QueueLen() != twin.s.QueueLen() || r.s.BusyCoreTime() != twin.s.BusyCoreTime() {
			t.Fatalf("step %d: queue %d busy %v, twin queue %d busy %v", step,
				r.s.QueueLen(), r.s.BusyCoreTime(), twin.s.QueueLen(), twin.s.BusyCoreTime())
		}
		for _, tag := range tags {
			if got, want := r.s.BusyCoreTimeByTag(tag), twin.s.BusyCoreTimeByTag(tag); got != want {
				t.Fatalf("step %d: tag %s busy %v, twin %v", step, tag, got, want)
			}
		}
		if r.eng.Pending() == 0 && twin.eng.Pending() == 0 {
			break
		}
	}
	if fmt.Sprint(r.order) != fmt.Sprint(twin.order) || len(r.order) != 12 {
		t.Fatalf("completion order %v, twin %v", r.order, twin.order)
	}
}

// TestRunningKeepsStartOrder pins the running list against a slice kept
// in start order: jobs leave it from the head, the middle and the tail,
// others join its tail, and a SetFreq then reschedules every survivor.
// The survivors all have the same work left, so they complete at one
// instant in reschedule order, which must be the reference's order. A
// snapshot taken before the SetFreq must relink the list in that order on
// Restore.
func TestRunningKeepsStartOrder(t *testing.T) {
	const ms = time.Millisecond
	const long = 20 * ms
	eng := sim.NewEngine(1)
	s := NewServer(eng, "n1", RoleNormalWorker, 8)
	var ref, order []int
	submit := func(i int, demand time.Duration) {
		j := &Job{Tag: "svc", Demand: demand}
		j.OnDone = func() {
			order = append(order, i)
			ref = slices.Delete(ref, slices.Index(ref, i), slices.Index(ref, i)+1)
		}
		s.Submit(j)
		ref = append(ref, i)
	}
	run := func(d time.Duration) {
		t.Helper()
		eng.RunFor(d)
		if s.InFlight() != len(ref) {
			t.Fatalf("at %v: %d in flight, reference holds %v", eng.Now(), s.InFlight(), ref)
		}
	}

	// Jobs 0, 2 and 5 are the head, a middle job and the tail when they
	// complete, at 2, 3 and 4 ms; 7 is the tail again at 5.5 ms. Jobs that
	// join later are sized to have long-6ms left at 6 ms, like the rest.
	for i, d := range []time.Duration{2 * ms, long, 3 * ms, long, long, 4 * ms} {
		submit(i, d)
	}
	run(4500 * time.Microsecond)
	submit(6, long-4500*time.Microsecond)
	submit(7, ms)
	run(1500 * time.Microsecond)
	submit(8, long-6*ms)
	if want := []int{0, 2, 5, 7}; !slices.Equal(order, want) {
		t.Fatalf("short jobs completed in order %v, want %v", order, want)
	}
	want := slices.Clone(ref)
	if !slices.Equal(want, []int{1, 3, 4, 6, 8}) {
		t.Fatalf("reference running set %v, want [1 3 4 6 8]", want)
	}
	se, ss := eng.Snapshot(), s.Snapshot()

	finish := func(label string) {
		t.Helper()
		order = order[:0]
		s.SetFreq(1.2)
		end := eng.Now().Add(2 * (long - 6*ms))
		run(2 * (long - 6*ms))
		if !slices.Equal(order, want) || eng.Now() != end {
			t.Fatalf("%s: survivors completed in order %v at %v, want %v at %v", label, order, eng.Now(), want, end)
		}
	}
	finish("live")

	// Diverge before restoring: start another job, change frequency and
	// run on, completing it.
	eng.Restore(se)
	s.Restore(ss)
	ref = slices.Clone(want)
	submit(9, ms)
	s.SetFreq(2.0)
	run(10 * ms)
	eng.Restore(se)
	s.Restore(ss)
	ref = slices.Clone(want)
	finish("restored")
}
