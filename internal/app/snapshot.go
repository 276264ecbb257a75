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
	reqs                []reqSnap
	calls               []callSnap
	invs                []invSnap
}

type reqSnap struct {
	ptr *request
	val request
}

type callSnap struct {
	ptr *callRun
	val callRun
}

type invSnap struct {
	ptr *invocation
	val invocation
}

// Snapshot captures the executor's state.
func (x *Executor) Snapshot() *ExecState {
	s := &ExecState{
		launched:  x.launched,
		completed: x.completed,
		rng:       x.rng.State(),
		reqs:      make([]reqSnap, len(x.liveReqs)),
		calls:     make([]callSnap, len(x.liveCalls)),
		invs:      make([]invSnap, len(x.liveInvs)),
	}
	for i, r := range x.liveReqs {
		s.reqs[i] = reqSnap{ptr: r, val: *r}
	}
	for i, c := range x.liveCalls {
		s.calls[i] = callSnap{ptr: c, val: *c}
	}
	for i, inv := range x.liveInvs {
		s.invs[i] = invSnap{ptr: inv, val: *inv}
	}
	return s
}

// Restore rewinds the executor to a snapshot taken from it earlier. Free
// pools are dropped rather than restored: objects allocated after the
// snapshot become garbage, and the pools refill as the run proceeds —
// pool membership never affects simulation output.
func (x *Executor) Restore(s *ExecState) {
	x.launched = s.launched
	x.completed = s.completed
	x.rng.SetState(s.rng)
	clearPtrs(x.freeReqs)
	clearPtrs(x.freeCalls)
	x.freeReqs, x.freeCalls = x.freeReqs[:0], x.freeCalls[:0]
	for i := range x.svcs {
		sv := &x.svcs[i]
		clearPtrs(sv.freeInvs)
		sv.freeInvs = sv.freeInvs[:0]
	}
	x.liveReqs = x.liveReqs[:0]
	for i := range s.reqs {
		r := s.reqs[i].ptr
		*r = s.reqs[i].val
		r.liveIdx = i
		x.liveReqs = append(x.liveReqs, r)
	}
	x.liveCalls = x.liveCalls[:0]
	for i := range s.calls {
		c := s.calls[i].ptr
		*c = s.calls[i].val
		c.liveIdx = i
		x.liveCalls = append(x.liveCalls, c)
	}
	x.liveInvs = x.liveInvs[:0]
	for i := range s.invs {
		inv := s.invs[i].ptr
		*inv = s.invs[i].val
		inv.liveIdx = i
		x.liveInvs = append(x.liveInvs, inv)
	}
}

func clearPtrs[T any](s []*T) {
	for i := range s {
		s[i] = nil
	}
}
