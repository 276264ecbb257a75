package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"servicefridge/internal/prof"
)

// Time is a point on the simulation's logical clock, measured as nanoseconds
// since the start of the run. It is deliberately distinct from time.Time:
// nothing in the simulator touches the wall clock.
type Time int64

// Add offsets a simulation time by a duration.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as floating-point seconds, for tables and plots.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Saturate converts ns, a non-negative count of nanoseconds, to a
// Duration, saturating at the longest one where the plain conversion
// would wrap negative.
func Saturate(ns float64) time.Duration {
	if ns >= 1<<63 {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// Handler is a scheduled callback. It runs at its scheduled time with the
// engine clock already advanced.
type Handler func()

// event is one calendar entry, stored by value in the calendar so that
// scheduling never heap-allocates. seq breaks ties so that events scheduled
// earlier at the same timestamp run first (deterministic FIFO ordering).
// timer is 1+slot into Engine.timers for cancellable events, 0 otherwise.
type event struct {
	at    Time
	seq   uint64
	fn    Handler
	timer int32
}

// before orders events by (time, sequence) — the engine's execution order.
func (ev event) before(o event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// keyBefore is before on the (at, seq) key as a number: 1 when at1:seq1
// orders before at2:seq2, else 0. It is the borrow out of the 128-bit
// unsigned subtraction at1:seq1 − at2:seq2, which needs no branch; a
// calendar time is never negative, so unsigned order is time order.
func keyBefore(at1, seq1, at2, seq2 uint64) uint64 {
	_, borrow := bits.Sub64(seq1, seq2, 0)
	_, borrow = bits.Sub64(at1, at2, borrow)
	return borrow
}

// timerState backs one live Timer handle. gen is a generation counter: it
// increments every time the slot is recycled, so a stale Timer.Stop (held
// across the timer's firing) can never cancel an unrelated later event.
type timerState struct {
	gen     uint32
	stopped bool
	// repeat marks Every timers, whose slot outlives individual events:
	// the repeating tick frees it, not the calendar pop.
	repeat bool
}

// Engine is a single-threaded discrete-event simulator. Events execute in
// strict (time, schedule-order) sequence. An Engine is not safe for
// concurrent use; the concurrency being modelled is logical, not Go-level —
// that keeps runs deterministic, which the experiment harness depends on.
//
// The calendar is a value-typed 4-ary min-heap: one slice of event values,
// no per-event heap allocation and no interface boxing. A 4-ary layout
// halves the tree depth of a binary heap, trading a few extra comparisons
// per level for fewer cache-missing levels — the right trade for the
// millions of push/pop cycles a full experiment registry performs.
//
// Beside the heap runs a FIFO lane for fixed-delay events (Hop). With a
// constant delay, each hop is due no earlier than the one before it, and
// its sequence number is larger, so appending keeps the lane sorted in
// the engine's (time, seq) order at O(1) per event; Step takes whichever
// of the lane head and the heap root comes first, so the lane changes
// no event's turn.
type Engine struct {
	now    Time
	seq    uint64
	events []event
	// lane holds the pending Hop events in (time, seq) order.
	lane FIFO[event]
	rng  *RNG
	// processed counts executed events, exposed for tests and for guarding
	// against runaway feedback loops in controllers.
	processed uint64

	// timers is the cancellation table for After/Every; freeTimers is its
	// freelist, so steady-state timer churn allocates nothing.
	timers     []timerState
	freeTimers []int32

	// prof, when non-nil, attributes the run loop's wall time to the
	// dispatch phase. The profiler only reads the wall clock — it never
	// touches the calendar, the logical clock, or the RNG — and it is
	// not part of the engine's snapshot state, so profiled runs stay
	// byte-identical to unprofiled ones.
	prof *prof.Profiler
}

// NewEngine returns an engine whose clock starts at 0 and whose root RNG is
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's root random stream. Components should derive
// their own sub-streams via RNG().Stream(name) at construction time.
func (e *Engine) RNG() *RNG { return e.rng }

// UntilEnd returns the longest delay the clock can still take: an event
// that far off is due at the end of time, which no bounded run reaches.
func (e *Engine) UntilEnd() time.Duration { return endOfTime.Sub(e.now) }

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetProfiler attaches a phase profiler to the engine's run loop (nil
// detaches). Dispatch scopes open around Run/RunUntil, so calendar cost
// and any handler work not claimed by a finer-grained phase accrue to
// the dispatch phase as self time.
func (e *Engine) SetProfiler(p *prof.Profiler) { e.prof = p }

// Grow pre-allocates calendar capacity for at least n more pending events
// in the heap and n more in the hop lane, so a run with a known event
// population never reallocates either slice.
func (e *Engine) Grow(n int) {
	e.events = slices.Grow(e.events, n)
	e.lane.Grow(n)
}

// due returns the time delay after now. A negative delay, or one that
// would carry the clock past the end of time, is an error in the caller;
// it panics to surface the bug immediately rather than corrupting
// causality (the stack names the caller). Every entry point that takes a
// delay goes through here, which keeps every calendar time non-negative,
// as siftDown's unsigned key requires.
func (e *Engine) due(delay time.Duration) Time {
	at := e.now.Add(delay)
	if at < e.now {
		e.badDelay(delay)
	}
	return at
}

// badDelay is due's panic, kept out of line so due stays small enough to
// inline.
//
//go:noinline
func (e *Engine) badDelay(delay time.Duration) {
	panic(fmt.Sprintf("sim: delay %v at t=%v is negative or past the end of time", delay, e.now))
}

// Schedule runs fn after delay, which must not be negative.
func (e *Engine) Schedule(delay time.Duration, fn Handler) {
	e.push(e.due(delay), fn, 0)
}

// ScheduleAt runs fn at absolute simulation time at, which must not be in
// the past.
func (e *Engine) ScheduleAt(at Time, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt %v is before now %v", at, e.now))
	}
	e.push(at, fn, 0)
}

// Hop runs fn after delay, like Schedule, for the events whose delay is
// one fixed constant (a network hop): each lands in the FIFO lane in O(1)
// instead of the heap. A hop due before the lane's tail (the delay got
// shorter) goes to the heap, so any delay is correct and only the
// constant one is cheap.
func (e *Engine) Hop(delay time.Duration, fn Handler) {
	at := e.due(delay)
	if e.lane.Len() > 0 && at < e.lane.Tail().at {
		e.push(at, fn, 0)
		return
	}
	e.lane.Push(event{at: at, seq: e.seq, fn: fn})
	e.seq++
}

// Timer is a handle to a cancellable scheduled event. The zero Timer is
// valid and Stop on it is a no-op.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer. It is a no-op if the event already ran (the
// generation counter guards against the slot having been recycled).
func (t Timer) Stop() {
	if t.eng == nil || int(t.slot) >= len(t.eng.timers) {
		return
	}
	if st := &t.eng.timers[t.slot]; st.gen == t.gen {
		st.stopped = true
	}
}

// Stopped reports whether Stop has been called and the timer is still the
// owner of its slot (i.e. the cancellation is pending).
func (t Timer) Stopped() bool {
	if t.eng == nil || int(t.slot) >= len(t.eng.timers) {
		return false
	}
	st := &t.eng.timers[t.slot]
	return st.gen == t.gen && st.stopped
}

// newTimer leases a cancellation slot from the freelist (or grows the
// table) and returns the slot with its current generation.
func (e *Engine) newTimer(repeat bool) (int32, uint32) {
	if n := len(e.freeTimers); n > 0 {
		slot := e.freeTimers[n-1]
		e.freeTimers = e.freeTimers[:n-1]
		e.timers[slot].repeat = repeat
		return slot, e.timers[slot].gen
	}
	e.timers = append(e.timers, timerState{repeat: repeat})
	return int32(len(e.timers) - 1), 0
}

// freeTimer recycles a slot: bumping the generation invalidates every
// outstanding handle before the slot is reused.
func (e *Engine) freeTimer(slot int32) {
	st := &e.timers[slot]
	st.gen++
	st.stopped = false
	st.repeat = false
	e.freeTimers = append(e.freeTimers, slot)
}

// After schedules fn like Schedule but returns a cancellable handle.
func (e *Engine) After(delay time.Duration, fn Handler) Timer {
	at := e.due(delay)
	slot, gen := e.newTimer(false)
	e.push(at, fn, slot+1)
	return Timer{eng: e, slot: slot, gen: gen}
}

// Every schedules fn to run now+period, then every period thereafter, until
// the returned Timer is stopped or the run ends.
func (e *Engine) Every(period time.Duration, fn Handler) Timer {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	slot, gen := e.newTimer(true)
	var tick Handler
	tick = func() {
		// The calendar pop already skipped (and freed) the timer if it was
		// stopped before this event ran; re-check after fn in case fn
		// stopped its own timer, in which case this closure owns the free.
		fn()
		if e.timers[slot].stopped {
			e.freeTimer(slot)
			return
		}
		e.push(e.due(period), tick, slot+1)
	}
	e.push(e.due(period), tick, slot+1)
	return Timer{eng: e, slot: slot, gen: gen}
}

// push appends one calendar entry and restores the heap invariant.
func (e *Engine) push(at Time, fn Handler, timer int32) {
	ev := event{at: at, seq: e.seq, fn: fn, timer: timer}
	e.seq++
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

// siftUp moves the entry at index i toward the root until ordered.
func (e *Engine) siftUp(i int) {
	ev := e.events[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(e.events[parent]) {
			break
		}
		e.events[i] = e.events[parent]
		i = parent
	}
	e.events[i] = ev
}

// popMin removes and returns the earliest entry.
func (e *Engine) popMin() event {
	min := e.events[0]
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{} // release the Handler so the GC can reclaim it
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return min
}

// siftDown re-inserts ev from the root, walking the earliest of up to
// four children per level. A full family is decided by a two-round
// tournament on the (at, seq) key whose winner is picked with masks, not
// branches: the heap is small and its keys arrive in no useful order, so
// a data-dependent branch per child mispredicts about as often as not.
// Keys are unique (seq is), so the tournament picks the child a linear
// scan would.
func (e *Engine) siftDown(ev event) {
	h := e.events
	n := len(h)
	at, seq := uint64(ev.at), ev.seq
	i := 0
	for {
		c := 4*i + 1
		if c+4 > n {
			break
		}
		f := (*[4]event)(h[c : c+4])
		a0, s0 := uint64(f[0].at), f[0].seq
		a1, s1 := uint64(f[1].at), f[1].seq
		a2, s2 := uint64(f[2].at), f[2].seq
		a3, s3 := uint64(f[3].at), f[3].seq
		// Round one: the earlier of children 0 and 1, and of 2 and 3.
		m := -keyBefore(a1, s1, a0, s0)
		j01 := m & 1
		a01, s01 := a0^(a0^a1)&m, s0^(s0^s1)&m
		m = -keyBefore(a3, s3, a2, s2)
		j23 := 2 | m&1
		a23, s23 := a2^(a2^a3)&m, s2^(s2^s3)&m
		// Round two: the earlier of the two winners.
		m = -keyBefore(a23, s23, a01, s01)
		j := j01 ^ (j01^j23)&m
		ba, bs := a01^(a01^a23)&m, s01^(s01^s23)&m
		if keyBefore(ba, bs, at, seq) == 0 {
			h[i] = ev
			return
		}
		best := c + int(j)
		h[i] = h[best]
		i = best
	}
	// A partial family (one to three children) ends the walk.
	if first := 4*i + 1; first < n {
		best := first
		for j := first + 1; j < n; j++ {
			if h[j].before(h[best]) {
				best = j
			}
		}
		if h[best].before(ev) {
			h[i] = h[best]
			i = best
		}
	}
	h[i] = ev
}

// endOfTime is later than every event: Step's deadline.
const endOfTime = Time(math.MaxInt64)

// Step executes the single next event. It returns false when the calendar
// is empty.
func (e *Engine) Step() bool { return e.step(endOfTime) }

// step executes the next event due at or before deadline, discarding the
// cancelled ones it meets on the way. It returns false when no live event
// is due by then.
func (e *Engine) step(deadline Time) bool {
	for {
		var ev event
		switch {
		case e.lane.Len() > 0 && (len(e.events) == 0 || e.lane.Head().before(e.events[0])):
			// The lane's head comes before the heap's root.
			if e.lane.Head().at > deadline {
				return false
			}
			ev = e.lane.Pop()
		case len(e.events) > 0:
			if e.events[0].at > deadline {
				return false
			}
			ev = e.popMin()
		default:
			return false
		}
		if ev.timer != 0 {
			slot := ev.timer - 1
			st := &e.timers[slot]
			if st.stopped {
				// Cancelled while pending: skip, and recycle the slot (the
				// repeating closure never runs again once its one pending
				// event is consumed, so Every slots free here too).
				e.freeTimer(slot)
				continue
			}
			if !st.repeat {
				// One-shot: the slot dies as the event fires, so a Stop
				// from inside fn (or later) is a generation-mismatch no-op.
				e.freeTimer(slot)
			}
		}
		e.now = ev.at
		e.processed++
		ev.fn()
		return true
	}
}

// Run executes events until the calendar is empty.
func (e *Engine) Run() {
	e.prof.Enter(prof.Dispatch)
	for e.Step() {
	}
	e.prof.Exit()
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock exactly to deadline. Events scheduled beyond the deadline remain
// queued, so a run can be resumed.
func (e *Engine) RunUntil(deadline Time) {
	e.prof.Enter(prof.Dispatch)
	for e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.prof.Exit()
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Pending reports how many events (including cancelled placeholders) remain
// in the calendar, hop lane included.
func (e *Engine) Pending() int { return len(e.events) + e.lane.Len() }
