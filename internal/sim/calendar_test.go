package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"
)

// refEvent / refHeap reimplement the engine's original calendar — a
// container/heap of pointer events ordered by (time, seq) — as the
// reference the value-typed 4-ary heap and the hop lane are checked
// against. stopped marks a cancelled After event, which the engine pops
// and skips.
type refEvent struct {
	at      Time
	seq     uint64
	stopped bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

// step pops the events the engine's step does: the cancelled ones due by
// deadline up to and including the first live one, which it returns (ok
// false when none is due).
func (h *refHeap) step(deadline Time) (ev refEvent, ok bool) {
	for h.Len() > 0 && (*h)[0].at <= deadline {
		if ev := heap.Pop(h).(*refEvent); !ev.stopped {
			return *ev, true
		}
	}
	return refEvent{}, false
}

// stop marks the pending event seq cancelled; a fired one is a no-op.
func (h refHeap) stop(seq uint64) {
	for _, ev := range h {
		if ev.seq == seq {
			ev.stopped = true
		}
	}
}

// clone deep-copies the reference, for snapshot and restore.
func (h refHeap) clone() refHeap {
	out := make(refHeap, len(h))
	for i, ev := range h {
		cp := *ev
		out[i] = &cp
	}
	return out
}

// calendarCoverage counts how often the randomized calendar property hit
// the cases it exists for, so a change that stops reaching them fails.
// maxHeap is the deepest the heap got; seqDecided counts the full
// four-child families met whose earliest child ties another on time, so
// that only the sequence number orders them.
type calendarCoverage struct {
	contested, heapHops, stops, laneSnapshots, deadlineAtLane, maxHeap, seqDecided int
}

// seqDecidedFamilies counts the full families of the heap whose earliest
// child shares its time with a sibling.
func seqDecidedFamilies(h []event) int {
	count := 0
	for c := 1; c+4 <= len(h); c += 4 {
		best := c
		for j := c + 1; j < c+4; j++ {
			if h[j].before(h[best]) {
				best = j
			}
		}
		for j := c; j < c+4; j++ {
			if j != best && h[j].at == h[best].at {
				count++
				break
			}
		}
	}
	return count
}

// The calendar operations the property test interleaves.
const (
	opSchedule  = iota
	opHop       // the executor's constant network hop
	opHopRandom // a changed hop delay, which may fall back to the heap
	opAfter
	opStop
	opRunUntil
	opSnapshot // snapshot, or restore the pending snapshot
	opStep
)

// deepMix pushes more than twice as often as it pops, mostly to the
// heap, so the heap grows to hundreds of events and pops interleave with
// pushes on a heap several levels deep. mixedMix weighs every operation
// and keeps the calendar shallow.
var (
	deepMix = []int{
		opSchedule, opSchedule, opSchedule, opSchedule, opAfter, opAfter, opAfter, opHop,
		opStop, opStep, opStep, opStep,
	}
	mixedMix = []int{
		opSchedule, opSchedule, opSchedule, opHop, opHop, opHop, opHopRandom, opAfter,
		opAfter, opStop, opRunUntil, opSnapshot, opStep, opStep, opStep, opStep,
	}
)

// TestFourAryHeapMatchesContainerHeap drives the engine's calendar and the
// container/heap reference through identical randomized interleavings of
// Schedule, Hop (one fixed delay, which fills the lane, and random delays,
// some of which fall back to the heap), After+Stop, Step, RunUntil (with
// the lane head exactly at the deadline, and at random deadlines), and
// Snapshot/Restore while the lane is non-empty. The first half of each
// run grows the heap to hundreds of events (deepMix), the second mixes
// every operation (mixedMix). Coarse timestamps force plenty of time ties
// between the lane and the heap and among siblings in the heap, so the
// seq tiebreak is actually exercised, both between the lane and the heap
// and inside siftDown's tournament. The executed (time, seq) order must
// be identical — the determinism contract the whole experiment harness
// rests on.
func TestFourAryHeapMatchesContainerHeap(t *testing.T) {
	var cov calendarCoverage
	f := func(seed uint64, n uint16) bool {
		eng := NewEngine(seed)
		r := eng.RNG().Stream("heapprop")
		var ref refHeap
		var got []refEvent // (time, seq) in execution order
		var timers []Timer
		timerSeqs := map[Timer]uint64{}
		// add schedules one event due at when through sched, mirrored in
		// the reference; the handler logs the event's (time, seq).
		add := func(when Time, sched func(Handler)) uint64 {
			seq := eng.seq
			sched(func() { got = append(got, refEvent{at: eng.now, seq: seq}) })
			heap.Push(&ref, &refEvent{at: when, seq: seq})
			return seq
		}
		// same checks that the events the engine logged after the first
		// from are exactly want.
		same := func(from int, want []refEvent) bool {
			if len(got)-from != len(want) {
				t.Logf("engine ran %d events, reference %d", len(got)-from, len(want))
				return false
			}
			for i, ev := range want {
				if got[from+i] != ev {
					t.Logf("order mismatch: engine ran %+v, reference %+v", got[from+i], ev)
					return false
				}
			}
			return true
		}
		type saved struct {
			eng    *EngineState
			ref    refHeap
			got    int
			timers []Timer
		}
		var snap *saved
		ops := int(n%2000) + 50
		for i := 0; i < ops; i++ {
			mix := mixedMix
			if i < ops/2 {
				mix = deepMix
			}
			lane := eng.lane.AppendTo(nil)
			switch mix[r.Intn(len(mix))] {
			case opSchedule:
				d := time.Duration(r.Intn(16)) * time.Millisecond
				add(eng.now.Add(d), func(fn Handler) { eng.Schedule(d, fn) })
			case opHop:
				const hop = 3 * time.Millisecond
				add(eng.now.Add(hop), func(fn Handler) { eng.Hop(hop, fn) })
			case opHopRandom:
				// One due before the lane's tail falls back to the heap.
				d := time.Duration(r.Intn(6)) * time.Millisecond
				if k := len(lane); k > 0 && eng.now.Add(d) < lane[k-1].at {
					cov.heapHops++
				}
				add(eng.now.Add(d), func(fn Handler) { eng.Hop(d, fn) })
			case opAfter:
				d := time.Duration(r.Intn(16)) * time.Millisecond
				var tm Timer
				seq := add(eng.now.Add(d), func(fn Handler) { tm = eng.After(d, fn) })
				timers = append(timers, tm)
				timerSeqs[tm] = seq
			case opStop:
				if len(timers) > 0 {
					tm := timers[r.Intn(len(timers))]
					tm.Stop()
					ref.stop(timerSeqs[tm])
					cov.stops++
				}
			case opRunUntil:
				// RunUntil with the lane head exactly at the deadline, or
				// at a random deadline (which may fall past a cancelled
				// entry and before the next live one).
				deadline := eng.now.Add(time.Duration(r.Intn(8)) * time.Millisecond)
				if len(lane) > 0 && r.Intn(2) == 0 {
					deadline = lane[0].at
					cov.deadlineAtLane++
				}
				from := len(got)
				var want []refEvent
				for ev, ok := ref.step(deadline); ok; ev, ok = ref.step(deadline) {
					want = append(want, ev)
				}
				eng.RunUntil(deadline)
				if !same(from, want) {
					return false
				}
				if eng.now != deadline {
					t.Logf("RunUntil(%v) left the clock at %v", deadline, eng.now)
					return false
				}
			case opSnapshot:
				if snap == nil && len(lane) > 0 {
					snap = &saved{eng.Snapshot(), ref.clone(), len(got), append([]Timer(nil), timers...)}
					cov.laneSnapshots++
				} else if snap != nil {
					eng.Restore(snap.eng)
					ref, got = snap.ref.clone(), got[:snap.got]
					// Handles leased after the snapshot are stale now.
					timers = append(timers[:0], snap.timers...)
					snap = nil
				}
			case opStep:
				if len(lane) > 0 && len(eng.events) > 0 {
					cov.contested++
				}
				from := len(got)
				var want []refEvent
				if ev, ok := ref.step(endOfTime); ok {
					want = append(want, ev)
				}
				if eng.Step() != (len(want) == 1) || !same(from, want) {
					return false
				}
			}
			if eng.Pending() != ref.Len() {
				t.Logf("Pending %d, reference holds %d", eng.Pending(), ref.Len())
				return false
			}
			cov.maxHeap = max(cov.maxHeap, len(eng.events))
			cov.seqDecided += seqDecidedFamilies(eng.events)
		}
		from := len(got)
		var want []refEvent
		for ev, ok := ref.step(endOfTime); ok; ev, ok = ref.step(endOfTime) {
			want = append(want, ev)
		}
		eng.Run()
		return same(from, want) && eng.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if cov.contested == 0 || cov.heapHops == 0 || cov.stops == 0 || cov.laneSnapshots == 0 || cov.deadlineAtLane == 0 || cov.maxHeap < 256 || cov.seqDecided == 0 {
		t.Fatalf("the interleavings missed a case: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

// TestHopStepZeroAllocs requires the hop lane's steady state to be
// allocation-free: with about 32 hops pending, appending one and stepping
// one reuses the lane's ring, which never grows past its population.
func TestHopStepZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := Handler(func() {})
	eng.Grow(64)
	for i := 0; i < 32; i++ {
		eng.Hop(time.Duration(i)*time.Microsecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Hop(100*time.Microsecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("Hop+Step allocated %.2f objects/op, want 0", allocs)
	}
	if eng.Pending() != 32 {
		t.Fatalf("Pending = %d, want 32", eng.Pending())
	}
}

// TestScheduleStepZeroAllocs pins the tentpole claim: once the calendar
// slice has grown to its working size, a Schedule+Step cycle performs no
// heap allocation — no per-event object, no interface boxing.
func TestScheduleStepZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := Handler(func() {})
	// Grow the calendar once, then drain to steady state.
	eng.Grow(4096)
	for i := 0; i < 1024; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	for i := 0; i < 512; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(time.Millisecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.2f objects/op, want 0", allocs)
	}
}

// TestTimerZeroAllocs requires the cancellable-timer path (After, Stop,
// and the skip-at-pop reclamation) to be allocation-free in steady state:
// the generation-counter slot table recycles through its freelist.
func TestTimerZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := Handler(func() {})
	eng.Grow(1024)
	for i := 0; i < 64; i++ { // populate the slot table
		eng.After(time.Microsecond, fn)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm := eng.After(time.Millisecond, fn)
		tm.Stop()
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Stop+Step allocated %.2f objects/op, want 0", allocs)
	}
}

// TestEveryTickZeroAllocs checks the periodic-tick path: after the one-off
// closure and slot lease at Every time, each tick re-push is free.
func TestEveryTickZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	eng.Grow(1024)
	ticks := 0
	tm := eng.Every(time.Second, func() { ticks++ })
	eng.Step() // prime the first tick
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Step()
	})
	tm.Stop()
	eng.Step()
	if allocs != 0 {
		t.Fatalf("Every tick allocated %.2f objects/op, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("ticked %d times, want >= 1000", ticks)
	}
}

// TestTimerSlotRecyclingIsGenerationSafe pins the ABA guard: a handle held
// across its timer's firing must not cancel the slot's next tenant.
func TestTimerSlotRecyclingIsGenerationSafe(t *testing.T) {
	eng := NewEngine(1)
	fired1, fired2 := false, false
	tm1 := eng.After(time.Millisecond, func() { fired1 = true })
	eng.Run()
	if !fired1 {
		t.Fatal("first timer did not fire")
	}
	// tm1's slot is free; the next After leases it with a bumped
	// generation. The stale Stop must be a no-op.
	tm2 := eng.After(time.Millisecond, func() { fired2 = true })
	tm1.Stop()
	eng.Run()
	if !fired2 {
		t.Fatal("stale Stop cancelled the slot's next tenant")
	}
	_ = tm2
}

// TestStoppedReportsPendingCancellation covers the Timer.Stopped accessor.
func TestStoppedReportsPendingCancellation(t *testing.T) {
	eng := NewEngine(1)
	tm := eng.After(time.Second, func() {})
	if tm.Stopped() {
		t.Fatal("fresh timer reports stopped")
	}
	tm.Stop()
	if !tm.Stopped() {
		t.Fatal("stopped timer not reported")
	}
	eng.Run()
	if tm.Stopped() {
		t.Fatal("recycled slot still reports stopped for a stale handle")
	}
	if (Timer{}).Stopped() {
		t.Fatal("zero Timer reports stopped")
	}
}
