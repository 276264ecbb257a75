package sim

// Snapshot/restore for the simulation core. The engine's calendar stores
// Handler closures that capture pointers into the live object graph, so a
// snapshot cannot clone the graph into a parallel universe: instead it
// value-copies every piece of engine-owned state, and Restore writes those
// values back into the SAME engine, rewinding it in place. Callers that own
// other mutable state (servers, collectors, generators...) must snapshot it
// alongside; internal/engine.Result.Snapshot composes all of them.
//
// A snapshot is immutable once taken: Restore only reads it, so one
// snapshot can seed any number of restored runs (the warm-start sweeps
// restore the same snapshot once per sweep cell).

// RNGState is the saved state of one RNG stream.
type RNGState struct {
	state    uint64
	spare    float64
	hasSpare bool
}

// State captures the stream's current position.
func (r *RNG) State() RNGState {
	return RNGState{state: r.state, spare: r.spare, hasSpare: r.hasSpare}
}

// SetState rewinds the stream to a captured position.
func (r *RNG) SetState(s RNGState) {
	r.state = s.state
	r.spare = s.spare
	r.hasSpare = s.hasSpare
}

// EngineState is a deep copy of an Engine's mutable state: clock, event
// calendar (heap layout included, so restored pop order is bit-identical),
// the pending part of the hop lane, timer table, freelist and root RNG.
type EngineState struct {
	now        Time
	seq        uint64
	processed  uint64
	events     []event
	lane       []event
	timers     []timerState
	freeTimers []int32
	rng        RNGState
}

// Now returns the simulation time at which the snapshot was taken.
func (s *EngineState) Now() Time { return s.now }

// Snapshot captures the engine's complete state. The event Handler values
// are copied as-is; they remain valid because Restore rewinds the objects
// they capture rather than replacing them.
func (e *Engine) Snapshot() *EngineState {
	return &EngineState{
		now:        e.now,
		seq:        e.seq,
		processed:  e.processed,
		events:     append([]event(nil), e.events...),
		lane:       e.lane.AppendTo(nil),
		timers:     append([]timerState(nil), e.timers...),
		freeTimers: append([]int32(nil), e.freeTimers...),
		rng:        e.rng.State(),
	}
}

// Restore rewinds the engine to a snapshot taken from it earlier. The
// snapshot is only read, never aliased: calendar and timer storage is
// copied back into the engine's own backing arrays (grown if needed), so
// the same snapshot can be restored repeatedly.
func (e *Engine) Restore(s *EngineState) {
	e.now = s.now
	e.seq = s.seq
	e.processed = s.processed
	e.events = append(e.events[:0], s.events...)
	e.lane.Reset()
	for _, ev := range s.lane {
		e.lane.Push(ev)
	}
	e.timers = append(e.timers[:0], s.timers...)
	e.freeTimers = append(e.freeTimers[:0], s.freeTimers...)
	e.rng.SetState(s.rng)
}
