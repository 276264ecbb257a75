package cluster

import (
	"fmt"
	"time"

	"servicefridge/internal/sim"
)

// Slowdown is a job class's frequency sensitivity: the multiplicative
// execution-time inflation at a frequency relative to FreqMax, when a
// fraction of the work (the CPU share) stretches inversely with
// frequency and the rest (memory, I/O, network time) does not. It is a
// value, so a job carries its class without a closure. The zero
// Slowdown is fully CPU-bound: FreqMax/f.
type Slowdown struct {
	// fixed is the frequency-invariant share, 1 − cpu. A LinearSlowdown
	// never has both zero, so the zero value can mean fully CPU-bound.
	fixed, cpu float64
}

// LinearSlowdown returns the Slowdown of a job class whose CPU share is
// cpuShare, clamped to [0,1].
func LinearSlowdown(cpuShare float64) Slowdown {
	if cpuShare < 0 {
		cpuShare = 0
	}
	if cpuShare > 1 {
		cpuShare = 1
	}
	return Slowdown{fixed: 1 - cpuShare, cpu: cpuShare}
}

// At returns the inflation factor at frequency f: 1 at FreqMax, growing
// as f falls (a non-positive f reads as FreqMin).
func (s Slowdown) At(f GHz) float64 {
	if f <= 0 {
		f = FreqMin
	}
	if s == (Slowdown{}) {
		return float64(FreqMax) / float64(f)
	}
	return s.fixed + s.cpu*float64(FreqMax)/float64(f)
}

// Job is one unit of work submitted to a server: a single microservice
// invocation. Demand is the service time the job would take at FreqMax on
// an idle core; the actual time stretches by Slowdown.At(hostFreq) and by
// queueing for a free core.
type Job struct {
	// Tag attributes the job's busy time to a logical owner (the
	// microservice name); per-tag accounting feeds per-service power
	// attribution (paper Figure 13).
	Tag string
	// Demand is the pure execution time at FreqMax.
	Demand time.Duration
	// Slowdown is the job's frequency sensitivity; the zero value is
	// fully CPU-bound (FreqMax/f).
	Slowdown Slowdown
	// OnDone fires when the job's demand has been fully served.
	OnDone func()

	remaining time.Duration // unscaled demand not yet served
	factor    float64       // current slowdown factor
	since     sim.Time      // when remaining was last recomputed
	timer     sim.Timer
	// started and startFreq record the job's last start: when it began
	// occupying a core, and its server's frequency then.
	started   sim.Time
	startFreq GHz
	// srv is the server the job was last submitted to. fire is the job's
	// completion handler, bound on first Submit and reading srv when it
	// runs, so no completion of a recycled or restored job allocates.
	srv  *Server
	fire sim.Handler
	// busyCell caches the per-tag busy accumulator of server cellSrv for
	// tag cellTag, so accruing busy time never hashes the tag string, and
	// a job started again on the same server under the same tag (a pooled
	// job reused for one owner) skips the tag lookup altogether.
	busyCell *time.Duration
	cellSrv  *Server
	cellTag  string
	// busyFrom is when the job's core time was last folded into busyCell:
	// its start, or the server's last per-tag read.
	busyFrom sim.Time
	// prev and next link the job into its server's running list while it
	// occupies a core.
	prev, next *Job
}

func (j *Job) complete() { j.srv.complete(j) }

// Started returns when the job last began occupying a core (its start,
// not its submit: a queued job starts when a core frees).
func (j *Job) Started() sim.Time { return j.started }

// StartFreq returns its server's frequency at that start.
func (j *Job) StartFreq() GHz { return j.startFreq }

func (j *Job) slowdownAt(f GHz) float64 {
	s := j.Slowdown.At(f)
	if s < 1 {
		s = 1
	}
	return s
}

// jobList is a doubly linked list of jobs threaded through Job.prev/next.
type jobList struct {
	head, tail *Job
	n          int
}

func (l *jobList) push(j *Job) {
	j.prev, j.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = j
	} else {
		l.head = j
	}
	l.tail = j
	l.n++
}

func (l *jobList) remove(j *Job) {
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		l.head = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		l.tail = j.prev
	}
	j.prev, j.next = nil, nil
	l.n--
}

// Server is one physical node: a FIFO-queued pool of cores running at a
// common adjustable frequency. Changing the frequency rescales the
// remaining service time of every in-flight job (a DVFS transition affects
// work in progress, not only future work).
type Server struct {
	eng   *sim.Engine
	name  string
	role  Role
	cores int
	freq  GHz
	// index is the server's position in its cluster's Servers(), set by
	// AddServer (0 for a server built alone).
	index int
	// maxFreq, when positive, caps every later SetFreq: the what-if
	// "frequency clamp" perturbation. Zero means unclamped.
	maxFreq GHz

	// running lists in-flight jobs in start order, linked through
	// Job.prev/next so a completion unlinks in O(1). The order is what
	// keeps SetFreq's reschedule deterministic: rescheduling assigns fresh
	// calendar sequence numbers, so reordering the list (a swap-remove, or
	// map iteration) would reorder same-time completions.
	running jobList
	// queue holds the jobs waiting for a core.
	queue sim.FIFO[*Job]

	// busy accounting: cumulative core-busy time, total and per tag. The
	// per-tag accumulators are boxed so jobs can cache a pointer to their
	// tag's cell (Job.busyCell); a box, once created, is never replaced.
	// busyTotal is current as of lastUpdate; a tag's cell lacks the time
	// its running jobs have accrued since their busyFrom, which
	// foldRunning adds before any read.
	busyTotal  time.Duration
	busyByTag  map[string]*time.Duration
	lastUpdate sim.Time

	// completedJobs counts jobs fully served, for tests and reports.
	completedJobs uint64
	// freqChanges counts DVFS transitions, to expose control overhead.
	freqChanges uint64
}

// NewServer creates a server with the given core count, initially at
// FreqMax with empty queues.
func NewServer(eng *sim.Engine, name string, role Role, cores int) *Server {
	if cores <= 0 {
		panic(fmt.Sprintf("cluster: server %q needs at least one core", name))
	}
	return &Server{
		eng:       eng,
		name:      name,
		role:      role,
		cores:     cores,
		freq:      FreqMax,
		busyByTag: make(map[string]*time.Duration),
	}
}

// Name returns the node name.
func (s *Server) Name() string { return s.name }

// Index returns the server's position in its cluster's Servers(), so
// per-server controller state can live in slices instead of name-keyed
// maps. A server built with NewServer outside a cluster reads 0.
func (s *Server) Index() int { return s.index }

// Role returns the node's testbed role.
func (s *Server) Role() Role { return s.role }

// Cores returns the number of cores.
func (s *Server) Cores() int { return s.cores }

// Freq returns the current operating frequency.
func (s *Server) Freq() GHz { return s.freq }

// InFlight returns the number of jobs currently occupying cores.
func (s *Server) InFlight() int { return s.running.n }

// QueueLen returns the number of jobs waiting for a core.
func (s *Server) QueueLen() int { return s.queue.Len() }

// Completed returns the count of fully served jobs.
func (s *Server) Completed() uint64 { return s.completedJobs }

// FreqChanges returns how many DVFS transitions this server has performed.
func (s *Server) FreqChanges() uint64 { return s.freqChanges }

// accrueBusy folds elapsed busy-core time into the total. Must be called
// before any change to the running set or a read of the total. Per-tag
// time accrues per job instead (see foldRunning), so this is O(1).
func (s *Server) accrueBusy() {
	now := s.eng.Now()
	if now > s.lastUpdate {
		s.busyTotal += now.Sub(s.lastUpdate) * time.Duration(s.running.n)
	}
	s.lastUpdate = now
}

// foldBusy adds the core time j has accrued since busyFrom to its tag's
// cell. The cells are integer sums, so folding per job at completion and
// at reads gives the same values as folding every job at every event.
func (j *Job) foldBusy(now sim.Time) {
	*j.busyCell += now.Sub(j.busyFrom)
	j.busyFrom = now
}

// foldRunning brings every tag's cell up to now. Must be called before a
// read of the per-tag cells.
func (s *Server) foldRunning() {
	now := s.eng.Now()
	for j := s.running.head; j != nil; j = j.next {
		j.foldBusy(now)
	}
}

// BusyCoreTime returns cumulative core-busy time since the run started.
func (s *Server) BusyCoreTime() time.Duration {
	s.accrueBusy()
	return s.busyTotal
}

// BusyCoreTimeByTag returns cumulative busy time attributed to tag.
func (s *Server) BusyCoreTimeByTag(tag string) time.Duration {
	s.foldRunning()
	if cell := s.busyByTag[tag]; cell != nil {
		return *cell
	}
	return 0
}

// Tags returns all tags that have accumulated busy time, in no particular
// order.
func (s *Server) Tags() []string {
	out := make([]string, 0, len(s.busyByTag))
	for t := range s.busyByTag {
		out = append(out, t)
	}
	return out
}

// Submit enqueues a job. It starts immediately if a core is free.
func (s *Server) Submit(j *Job) {
	if j.Demand < 0 {
		panic(fmt.Sprintf("cluster: job %q with negative demand %v", j.Tag, j.Demand))
	}
	j.srv = s
	if j.fire == nil {
		j.fire = j.complete
	}
	if s.running.n < s.cores {
		s.start(j)
		return
	}
	s.queue.Push(j)
}

func (s *Server) start(j *Job) {
	s.accrueBusy()
	j.remaining = j.Demand
	j.factor = j.slowdownAt(s.freq)
	j.since = s.eng.Now()
	j.busyFrom = j.since
	j.started, j.startFreq = j.since, s.freq
	if j.cellSrv != s || j.cellTag != j.Tag {
		cell := s.busyByTag[j.Tag]
		if cell == nil {
			cell = new(time.Duration)
			s.busyByTag[j.Tag] = cell
		}
		j.busyCell, j.cellSrv, j.cellTag = cell, s, j.Tag
	}
	s.running.push(j)
	s.scheduleCompletion(j)
}

// scheduleCompletion times j's completion on its current factor. A job
// too long for the clock completes at the end of time, which no bounded
// run reaches, instead of wrapping past it.
func (s *Server) scheduleCompletion(j *Job) {
	wall := min(sim.Saturate(float64(j.remaining)*j.factor), s.eng.UntilEnd())
	j.timer = s.eng.After(wall, j.fire)
}

func (s *Server) complete(j *Job) {
	s.accrueBusy()
	j.foldBusy(s.eng.Now())
	s.running.remove(j)
	j.remaining = 0
	s.completedJobs++
	// Start the next queued job before the completion callback so that
	// callbacks observing queue lengths see a settled state.
	if s.queue.Len() > 0 {
		s.start(s.queue.Pop())
	}
	if j.OnDone != nil {
		j.OnDone()
	}
}

// SetFreq performs a DVFS transition. In-flight jobs keep the work they
// have completed and have their remaining service time rescaled to the new
// frequency. Setting the current frequency is a no-op.
func (s *Server) SetFreq(f GHz) {
	f = ClampFreq(f)
	if s.maxFreq > 0 && f > s.maxFreq {
		f = s.maxFreq
	}
	if f == s.freq {
		return
	}
	s.accrueBusy()
	now := s.eng.Now()
	for j := s.running.head; j != nil; j = j.next {
		// Work completed since the last reschedule, in unscaled units.
		elapsed := now.Sub(j.since)
		done := time.Duration(float64(elapsed) / j.factor)
		if done > j.remaining {
			done = j.remaining
		}
		j.remaining -= done
		j.since = now
		j.factor = j.slowdownAt(f)
		j.timer.Stop()
		s.scheduleCompletion(j)
	}
	s.freq = f
	s.freqChanges++
}

// SetMaxFreq installs (or, with max <= 0, removes) a frequency clamp:
// the server's frequency is immediately lowered to max if it exceeds it,
// and every later SetFreq is capped at max until the clamp is lifted.
// Schemes keep issuing their usual DVFS decisions; the clamp silently
// bounds what the hardware honours — the shape of a thermal or firmware
// limit, and the what-if control plane's frequency perturbation.
func (s *Server) SetMaxFreq(max GHz) {
	if max <= 0 {
		s.maxFreq = 0
		return
	}
	s.maxFreq = ClampFreq(max)
	if s.freq > s.maxFreq {
		s.SetFreq(s.maxFreq)
	}
}

// MaxFreq returns the active frequency clamp (0 when unclamped).
func (s *Server) MaxFreq() GHz { return s.maxFreq }

// Utilization returns the fraction of core capacity busy between two
// cumulative BusyCoreTime readings taken window apart.
func Utilization(busyDelta time.Duration, cores int, window time.Duration) float64 {
	if window <= 0 || cores <= 0 {
		return 0
	}
	u := float64(busyDelta) / (float64(cores) * float64(window))
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}
