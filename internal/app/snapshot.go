package app

import "servicefridge/internal/sim"

// ExecState is a deep copy of the executor's mutable state: counters, the
// RNG position and a full value copy of every live request, call run and
// invocation. Object identity is preserved across Restore — calendar
// closures (pending network hops) and cluster job pointers reference the
// same objects after the rewind.
type ExecState struct {
	launched, completed uint64
	rng                 sim.RNGState
	reqs                sim.PoolState[request]
	calls               sim.PoolState[callRun]
	invs                []sim.PoolState[invocation] // by service ID
}

// Snapshot captures the executor's state.
func (x *Executor) Snapshot() *ExecState {
	s := &ExecState{
		launched:  x.launched,
		completed: x.completed,
		rng:       x.rng.State(),
		reqs:      x.reqs.Snapshot(),
		calls:     x.calls.Snapshot(),
		invs:      make([]sim.PoolState[invocation], len(x.svcs)),
	}
	for i := range x.svcs {
		s.invs[i] = x.svcs[i].invs.Snapshot()
	}
	return s
}

// Restore rewinds the executor to a snapshot taken from it earlier.
func (x *Executor) Restore(s *ExecState) {
	x.launched = s.launched
	x.completed = s.completed
	x.rng.SetState(s.rng)
	x.reqs.Restore(s.reqs)
	x.calls.Restore(s.calls)
	for i := range x.svcs {
		x.svcs[i].invs.Restore(s.invs[i])
	}
}
