package cluster

import (
	"fmt"
	"time"

	"servicefridge/internal/sim"
)

// SlowdownFunc maps an operating frequency to the multiplicative execution
// time inflation of a particular job class relative to FreqMax. A job class
// that is insensitive to frequency returns ~1 everywhere; a perfectly
// CPU-bound one returns FreqMax/f. The function must be >= 1 for f < FreqMax
// and exactly 1 at FreqMax.
type SlowdownFunc func(f GHz) float64

// LinearSlowdown returns a SlowdownFunc where a fraction cpuShare of the
// work scales inversely with frequency and the remainder is frequency
// invariant (memory/IO/network time). cpuShare in [0,1].
func LinearSlowdown(cpuShare float64) SlowdownFunc {
	if cpuShare < 0 {
		cpuShare = 0
	}
	if cpuShare > 1 {
		cpuShare = 1
	}
	return func(f GHz) float64 {
		if f <= 0 {
			f = FreqMin
		}
		return (1 - cpuShare) + cpuShare*float64(FreqMax)/float64(f)
	}
}

// Job is one unit of work submitted to a server: a single microservice
// invocation. Demand is the service time the job would take at FreqMax on
// an idle core; the actual time stretches by Slowdown(hostFreq) and by
// queueing for a free core.
type Job struct {
	// Tag attributes the job's busy time to a logical owner (the
	// microservice name); per-tag accounting feeds per-service power
	// attribution (paper Figure 13).
	Tag string
	// Demand is the pure execution time at FreqMax.
	Demand time.Duration
	// Slowdown is the job's frequency sensitivity; nil means fully
	// CPU-bound (FreqMax/f).
	Slowdown SlowdownFunc
	// OnStart, if non-nil, fires when the job begins occupying a core.
	OnStart func()
	// OnDone fires when the job's demand has been fully served.
	OnDone func()

	remaining time.Duration // unscaled demand not yet served
	factor    float64       // current slowdown factor
	since     sim.Time      // when remaining was last recomputed
	timer     sim.Timer
	running   bool
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
}

func (j *Job) complete() { j.srv.complete(j) }

func (j *Job) slowdownAt(f GHz) float64 {
	if j.Slowdown == nil {
		return float64(FreqMax) / float64(f)
	}
	s := j.Slowdown(f)
	if s < 1 {
		s = 1
	}
	return s
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
	// maxFreq, when positive, caps every later SetFreq: the what-if
	// "frequency clamp" perturbation. Zero means unclamped.
	maxFreq GHz

	// running holds in-flight jobs in start order. A slice (not a map)
	// keeps SetFreq's reschedule order deterministic: rescheduling assigns
	// fresh calendar sequence numbers, and map iteration would assign them
	// in a different order every run.
	running []*Job
	queue   []*Job

	// busy accounting: cumulative core-busy time, total and per tag. The
	// per-tag accumulators are boxed so jobs can cache a pointer to their
	// tag's cell (Job.busyCell); a box, once created, is never replaced.
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

// Role returns the node's testbed role.
func (s *Server) Role() Role { return s.role }

// Cores returns the number of cores.
func (s *Server) Cores() int { return s.cores }

// Freq returns the current operating frequency.
func (s *Server) Freq() GHz { return s.freq }

// InFlight returns the number of jobs currently occupying cores.
func (s *Server) InFlight() int { return len(s.running) }

// QueueLen returns the number of jobs waiting for a core.
func (s *Server) QueueLen() int { return len(s.queue) }

// Completed returns the count of fully served jobs.
func (s *Server) Completed() uint64 { return s.completedJobs }

// FreqChanges returns how many DVFS transitions this server has performed.
func (s *Server) FreqChanges() uint64 { return s.freqChanges }

// accrueBusy folds elapsed busy-core time into the counters. Must be called
// before any change to the running set or a sample of the counters.
func (s *Server) accrueBusy() {
	now := s.eng.Now()
	if now > s.lastUpdate && len(s.running) > 0 {
		dt := now.Sub(s.lastUpdate)
		s.busyTotal += dt * time.Duration(len(s.running))
		for _, j := range s.running {
			*j.busyCell += dt
		}
	}
	s.lastUpdate = now
}

// BusyCoreTime returns cumulative core-busy time since the run started.
func (s *Server) BusyCoreTime() time.Duration {
	s.accrueBusy()
	return s.busyTotal
}

// BusyCoreTimeByTag returns cumulative busy time attributed to tag.
func (s *Server) BusyCoreTimeByTag(tag string) time.Duration {
	s.accrueBusy()
	if cell := s.busyByTag[tag]; cell != nil {
		return *cell
	}
	return 0
}

// Tags returns all tags that have accumulated busy time, in no particular
// order.
func (s *Server) Tags() []string {
	s.accrueBusy()
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
	if len(s.running) < s.cores {
		s.start(j)
		return
	}
	s.queue = append(s.queue, j)
}

func (s *Server) start(j *Job) {
	s.accrueBusy()
	j.remaining = j.Demand
	j.factor = j.slowdownAt(s.freq)
	j.since = s.eng.Now()
	j.running = true
	if j.cellSrv != s || j.cellTag != j.Tag {
		cell := s.busyByTag[j.Tag]
		if cell == nil {
			cell = new(time.Duration)
			s.busyByTag[j.Tag] = cell
		}
		j.busyCell, j.cellSrv, j.cellTag = cell, s, j.Tag
	}
	s.running = append(s.running, j)
	if j.OnStart != nil {
		j.OnStart()
	}
	s.scheduleCompletion(j)
}

func (s *Server) scheduleCompletion(j *Job) {
	wall := time.Duration(float64(j.remaining) * j.factor)
	j.timer = s.eng.After(wall, j.fire)
}

func (s *Server) complete(j *Job) {
	s.accrueBusy()
	for i, r := range s.running {
		if r == j {
			copy(s.running[i:], s.running[i+1:])
			s.running[len(s.running)-1] = nil
			s.running = s.running[:len(s.running)-1]
			break
		}
	}
	j.running = false
	j.remaining = 0
	s.completedJobs++
	// Start the next queued job before the completion callback so that
	// callbacks observing queue lengths see a settled state.
	if len(s.queue) > 0 {
		next := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.start(next)
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
	for _, j := range s.running {
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
