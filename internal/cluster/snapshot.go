package cluster

import (
	"time"

	"servicefridge/internal/sim"
)

// jobSnap pairs a live Job pointer with a full value copy of its state at
// snapshot time. Restore writes the value back through the pointer: the
// object identity must be preserved because calendar closures and owner
// pools reference the same *Job after the rewind.
type jobSnap struct {
	ptr *Job
	val Job
}

// ServerState is a deep copy of one server's mutable state.
type ServerState struct {
	freq          GHz
	maxFreq       GHz
	running       []jobSnap
	queue         []jobSnap
	busyTotal     time.Duration
	busyByTag     map[string]time.Duration
	lastUpdate    sim.Time
	completedJobs uint64
	freqChanges   uint64
}

// Snapshot captures the server's state, including full value copies of
// every running and queued job (a job object may be recycled by its owner
// after completion, so the fields must be saved, not just the pointers).
func (s *Server) Snapshot() *ServerState {
	snap := &ServerState{
		freq:          s.freq,
		maxFreq:       s.maxFreq,
		busyTotal:     s.busyTotal,
		busyByTag:     make(map[string]time.Duration, len(s.busyByTag)),
		lastUpdate:    s.lastUpdate,
		completedJobs: s.completedJobs,
		freqChanges:   s.freqChanges,
	}
	snap.running = make([]jobSnap, 0, s.running.n)
	for j := s.running.head; j != nil; j = j.next {
		snap.running = append(snap.running, jobSnap{ptr: j, val: *j})
	}
	waiting := s.queue.AppendTo(nil)
	snap.queue = make([]jobSnap, len(waiting))
	for i, j := range waiting {
		snap.queue[i] = jobSnap{ptr: j, val: *j}
	}
	for tag, cell := range s.busyByTag {
		snap.busyByTag[tag] = *cell
	}
	return snap
}

// Restore rewinds the server to a snapshot taken from it earlier. Per-tag
// busy boxes are reset in place (never replaced) so Job.busyCell pointers
// cached by restored jobs stay valid; boxes created after the snapshot are
// zeroed, which is invisible to consumers (a tag only surfaces in power
// samples once it accrues busy time). A box holds its tag's time up to the
// running jobs' busyFrom, which the restored job values carry, so the
// snapshot needs no fold.
func (s *Server) Restore(snap *ServerState) {
	s.freq = snap.freq
	s.maxFreq = snap.maxFreq
	s.busyTotal = snap.busyTotal
	s.lastUpdate = snap.lastUpdate
	s.completedJobs = snap.completedJobs
	s.freqChanges = snap.freqChanges
	// Pushing the restored jobs in their saved order rebuilds the running
	// list and every job's links.
	s.running = jobList{}
	for _, js := range snap.running {
		*js.ptr = js.val
		s.running.push(js.ptr)
	}
	s.queue.Reset()
	for _, js := range snap.queue {
		*js.ptr = js.val
		s.queue.Push(js.ptr)
	}
	for tag, cell := range s.busyByTag {
		*cell = snap.busyByTag[tag]
	}
}

// ClusterState is a deep copy of every server's state, in cluster order.
type ClusterState struct {
	servers []*ServerState
}

// Snapshot captures all servers. The server set itself is fixed after
// construction, so only per-server state is saved.
func (c *Cluster) Snapshot() *ClusterState {
	st := &ClusterState{servers: make([]*ServerState, len(c.servers))}
	for i, s := range c.servers {
		st.servers[i] = s.Snapshot()
	}
	return st
}

// Restore rewinds all servers to the snapshot.
func (c *Cluster) Restore(st *ClusterState) {
	for i, s := range c.servers {
		s.Restore(st.servers[i])
	}
}
