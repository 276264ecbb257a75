package core

// CounterState is a snapshot of the indegree counters.
type CounterState struct {
	pending []float64
}

// Snapshot captures the counter's state.
func (c *Counter) Snapshot() *CounterState {
	return &CounterState{pending: append([]float64(nil), c.pending...)}
}

// Restore rewinds the counter to the snapshot.
func (c *Counter) Restore(s *CounterState) {
	copy(c.pending, s.pending)
}
