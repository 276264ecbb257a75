package sim

import (
	"math"
	"testing"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("clock = %v, want 3ms", e.Now())
	}
}

func TestEngineTiesRunInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(time.Millisecond, func() {
		e.Schedule(time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 1 || fired[0] != Time(2*time.Millisecond) {
		t.Fatalf("nested event fired at %v, want [2ms]", fired)
	}
}

func TestEngineRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Second, func() { ran++ })
	e.Schedule(3*time.Second, func() { ran++ })
	e.RunUntil(Time(2 * time.Second))
	if ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("clock = %v, want exactly the deadline", e.Now())
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("resume ran %d total, want 2", ran)
	}
}

// TestRunUntilStopsAtDeadlinePastCancelledHead pins RunUntil's contract
// when the calendar's head is a cancelled timer due before the deadline
// and the next live event is due after it: the cancelled entry is
// discarded and the live one waits for the next run.
func TestRunUntilStopsAtDeadlinePastCancelledHead(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(time.Millisecond, func() {}).Stop()
	e.Schedule(5*time.Millisecond, func() { ran = true })
	e.RunUntil(Time(2 * time.Millisecond))
	if ran || e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("RunUntil(2ms): ran=%v, clock %v; want the 5ms event pending at 2ms", ran, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the cancelled entry discarded)", e.Pending())
	}
	e.Run()
	if !ran {
		t.Fatal("resumed run skipped the 5ms event")
	}
}

func TestEngineRunForAdvancesRelative(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(5 * time.Second)
	e.RunFor(5 * time.Second)
	if e.Now() != Time(10*time.Second) {
		t.Fatalf("clock = %v, want 10s", e.Now())
	}
}

func TestTimerStopCancelsEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	tm.Stop()
	e.Run()
	if fired {
		t.Fatal("stopped timer still fired")
	}
}

func TestTimerStopAfterFiringIsNoop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.After(time.Second, func() { fired++ })
	e.Run()
	tm.Stop()
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

func TestEveryTicksPeriodically(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tm := e.Every(time.Second, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(Time(3500 * time.Millisecond))
	tm.Stop()
	e.RunUntil(Time(10 * time.Second))
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (at 1s,2s,3s): %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := Time(time.Duration(i+1) * time.Second)
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tm Timer
	tm = e.Every(time.Second, func() {
		count++
		if count == 2 {
			tm.Stop()
		}
	})
	e.Run()
	if count != 2 {
		t.Fatalf("ticked %d times, want 2", count)
	}
}

func TestScheduleNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine(1).Schedule(-time.Second, func() {})
}

// TestDelayPastEndOfTimePanics: a delay that carries the clock past the
// largest Time would wrap to a negative calendar time, which the heap's
// unsigned key would order last; Schedule, Hop, After and Every refuse
// it, Every also when only a repeat would carry the clock past it.
func TestDelayPastEndOfTimePanics(t *testing.T) {
	half := time.Duration(math.MaxInt64/2 + 1)
	for name, sched := range map[string]func(*Engine){
		"Schedule": func(e *Engine) { e.Schedule(time.Duration(math.MaxInt64), func() {}) },
		"Hop":      func(e *Engine) { e.Hop(time.Duration(math.MaxInt64), func() {}) },
		"After":    func(e *Engine) { e.After(time.Duration(math.MaxInt64), func() {}) },
		"Every":    func(e *Engine) { e.Every(time.Duration(math.MaxInt64), func() {}) },
		// The first tick fits; the one it schedules does not.
		"Every's repeat": func(e *Engine) { e.Every(half, func() {}); e.Step() },
	} {
		e := NewEngine(1)
		e.RunFor(time.Second)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the end of time did not panic", name)
				}
			}()
			sched(e)
		}()
	}
}

// TestSaturateAndUntilEnd: a nanosecond count past the Duration range
// saturates instead of wrapping negative, and a delay of UntilEnd is due
// exactly at the end of time, which RunUntil with any earlier deadline
// never reaches.
func TestSaturateAndUntilEnd(t *testing.T) {
	for _, tc := range []struct {
		ns   float64
		want time.Duration
	}{{0, 0}, {1.5, 1}, {1 << 62, 1 << 62}, {1 << 63, math.MaxInt64}, {1e300, math.MaxInt64}} {
		if got := Saturate(tc.ns); got != tc.want {
			t.Errorf("Saturate(%v) = %v, want %v", tc.ns, got, tc.want)
		}
	}
	e := NewEngine(1)
	e.RunFor(time.Hour)
	fired := false
	e.After(e.UntilEnd(), func() { fired = true })
	e.RunUntil(endOfTime - 1)
	if fired || e.Pending() != 1 {
		t.Fatalf("an event due at the end of time fired (%v) or left the calendar (%d pending)", fired, e.Pending())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for past ScheduleAt")
			}
		}()
		e.ScheduleAt(Time(0), func() {})
	})
	e.Run()
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(2 * time.Second)
	if a.Add(500*time.Millisecond) != Time(2500*time.Millisecond) {
		t.Fatal("Add wrong")
	}
	if a.Sub(Time(500*time.Millisecond)) != 1500*time.Millisecond {
		t.Fatal("Sub wrong")
	}
	if a.Seconds() != 2.0 {
		t.Fatalf("Seconds = %v, want 2", a.Seconds())
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := NewEngine(seed)
		r := e.RNG().Stream("arrivals")
		var draws []uint64
		for i := 0; i < 100; i++ {
			delay := time.Duration(r.Intn(1000)+1) * time.Microsecond
			e.Schedule(delay, func() { draws = append(draws, r.Uint64()) })
		}
		e.Run()
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}
