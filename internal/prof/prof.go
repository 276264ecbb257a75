// Package prof is the simulator's self-observability layer: a phase-level
// profiler that attributes wall-clock time, call counts, and (for
// control-rate phases) allocation bytes to named simulator phases —
// calendar dispatch, request execution, scheme ticks with the MCF solve
// and zone assignment broken out, telemetry sampling, event encoding,
// ledger sealing, and snapshot/restore.
//
// The hard invariant mirrors obs.Ledger's: the profiler is passive. It
// reads only the monotonic wall clock (and the runtime's allocation
// counter), never touches simulation state or RNG, and is excluded from
// snapshots and state digests — so every simulation output (stdout,
// events, ledger, telemetry) is byte-identical with profiling on or off.
// That is what lets it stay attached to every run, including the
// determinism-gated CI artifacts.
//
// Accounting is self-time: entering an inner phase pauses the outer one,
// so phase seconds partition the profiled wall time exactly — they sum to
// the total time spent inside top-level scopes, never double-counting.
// Scopes are goroutine-local (each simulation run is single-threaded and
// owns its Profiler), while the accumulators are atomic, so concurrent
// readers (the /metrics scrape, GET /sessions/{id}/profile) can snapshot
// a live profiler without synchronizing with the run.
package prof

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// Phase names one attributable slice of simulator work.
type Phase uint8

const (
	// Build is engine construction: testbed, deployment, scheme, wiring.
	Build Phase = iota
	// Dispatch is the calendar run loop: event pop/dispatch plus any
	// handler work not claimed by a finer phase (generators, job
	// scheduling, orchestration).
	Dispatch
	// Exec is request execution: microservice invocations in
	// internal/app. Too hot to clock individually (millions of handler
	// events per run, each far cheaper than a clock read), invocations
	// are counted via Count while their wall time stays inside the
	// enclosing Dispatch scope.
	Exec
	// Tick is the scheme control tick minus the MCF and Zones slices.
	Tick
	// MCF is the per-tick criticality solve (calculation plus the
	// two-frequency classification).
	MCF
	// Zones is zone assignment and zone-population recording.
	Zones
	// Telemetry is one telemetry sampling tick.
	Telemetry
	// Encode is controller-event encoding: Recorder.Emit including the
	// ledger's fold of the canonical JSON line.
	Encode
	// Seal is one run-ledger seal: state digest, RNG cursor digest, and
	// the hash-chain link.
	Seal
	// Snapshot covers engine snapshot, restore, and fork replays.
	Snapshot

	// NumPhases bounds the phase enum; it is not a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"build", "dispatch", "exec", "tick", "mcf", "zones",
	"telemetry", "encode", "seal", "snapshot",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "invalid"
}

// allocTracked marks the control-rate phases whose scopes also record
// allocation bytes. Event-rate phases (dispatch, exec, encode) are
// excluded: reading the runtime's allocation counter costs far more than
// a clock read, and those hot paths are bench-gated allocation-free
// anyway. The counter is process-global, so attribution is exact at
// -parallel 1 and an upper bound when runs overlap.
var allocTracked = [NumPhases]bool{
	Build: true, Tick: true, MCF: true, Zones: true,
	Telemetry: true, Seal: true, Snapshot: true,
}

// maxDepth bounds the scope stack. Real nesting is at most four deep
// (dispatch > tick > mcf, dispatch > tick > encode ...); deeper entries
// are counted but not timed rather than corrupting the stack.
const maxDepth = 16

// phaseCounters is one phase's accumulator set. Atomic so that HTTP
// readers can snapshot a live profiler while the run's goroutine writes.
type phaseCounters struct {
	nanos      atomic.Int64
	count      atomic.Int64
	allocBytes atomic.Int64
}

// frame is one suspended outer scope on the goroutine-local stack.
type frame struct {
	phase      Phase
	allocStart uint64 // allocation counter at entry, for alloc-tracked phases
}

// Profiler attributes one run's wall time to phases. The zero value is
// not usable; create one with New or NewDetached. All methods are
// nil-safe: a nil *Profiler is the disabled profiler, and every
// operation on it is a single pointer test.
type Profiler struct {
	label  string
	base   time.Time // monotonic base; all marks are nanos since base
	phases [NumPhases]phaseCounters
	wall   atomic.Int64 // total nanos inside top-level scopes

	// Goroutine-local scope state: only the goroutine driving the run
	// touches these, mirroring the simulator's one-run-one-goroutine
	// discipline.
	stack    [maxDepth]frame
	depth    int
	cur      Phase
	mark     int64
	topStart int64             // entry nanos of the current top-level scope
	samples  [1]metrics.Sample // pre-allocated for allocation reads
}

// allocMetric is the runtime's cumulative heap allocation counter.
const allocMetric = "/gc/heap/allocs:bytes"

func newProfiler(label string) *Profiler {
	if label == "" {
		label = "run"
	}
	p := &Profiler{label: label, base: time.Now()}
	p.samples[0].Name = allocMetric
	return p
}

// NewDetached returns a live profiler that is not registered with the
// package registry — for owners that manage its lifetime themselves
// (control-plane sessions, tests, benchmarks).
func NewDetached(label string) *Profiler { return newProfiler(label) }

// Label returns the label the profiler aggregates under.
func (p *Profiler) Label() string {
	if p == nil {
		return ""
	}
	return p.label
}

// allocNow reads the cumulative allocation counter. The pre-allocated
// sample keeps the read allocation-free.
func (p *Profiler) allocNow() uint64 {
	metrics.Read(p.samples[:])
	return p.samples[0].Value.Uint64()
}

// Enter opens a scope for phase, pausing the enclosing phase's clock
// (self-time accounting). Every Enter must be paired with an Exit on the
// same goroutine.
func (p *Profiler) Enter(phase Phase) {
	if p == nil {
		return
	}
	now := int64(time.Since(p.base))
	if p.depth == 0 {
		p.topStart = now
	} else if p.depth <= maxDepth {
		p.phases[p.cur].nanos.Add(now - p.mark)
	}
	if p.depth < maxDepth {
		f := &p.stack[p.depth]
		f.phase = p.cur
		if allocTracked[phase] {
			f.allocStart = p.allocNow()
		}
		p.cur = phase
		p.phases[phase].count.Add(1)
	}
	p.depth++
	p.mark = now
}

// Count records one occurrence of phase without opening a timed scope —
// for event-rate work too hot to clock per occurrence. Exec uses this:
// two clock reads per invocation cost more than the invocation handlers
// themselves (measured ~60% on fig15), so the exec row carries the
// invocation count while its seconds remain part of Dispatch.
func (p *Profiler) Count(phase Phase) {
	if p == nil {
		return
	}
	p.phases[phase].count.Add(1)
}

// Exit closes the innermost open scope and resumes the enclosing
// phase's clock.
func (p *Profiler) Exit() {
	if p == nil {
		return
	}
	now := int64(time.Since(p.base))
	if p.depth <= 0 {
		return
	}
	p.depth--
	if p.depth < maxDepth {
		p.phases[p.cur].nanos.Add(now - p.mark)
		f := &p.stack[p.depth]
		// The closing scope's own phase says whether its entry count was
		// read: the counter itself may read 0 early in a process, before
		// the runtime has flushed any allocation statistics.
		if allocTracked[p.cur] {
			if end := p.allocNow(); end > f.allocStart {
				p.phases[p.cur].allocBytes.Add(int64(end - f.allocStart))
			}
		}
		p.cur = f.phase
		if p.depth == 0 {
			p.wall.Add(now - p.topStart)
		}
	}
	p.mark = now
}

// PhaseTotal is one phase's aggregated counters.
type PhaseTotal struct {
	Phase      Phase
	Seconds    float64
	Count      int64
	AllocBytes int64
}

// Totals snapshots the profiler's per-phase accumulators. Safe to call
// from any goroutine while the run is live.
func (p *Profiler) Totals() []PhaseTotal {
	if p == nil {
		return nil
	}
	out := make([]PhaseTotal, 0, NumPhases)
	for ph := Phase(0); ph < NumPhases; ph++ {
		c := &p.phases[ph]
		n, cnt := c.nanos.Load(), c.count.Load()
		if cnt == 0 && n == 0 {
			continue
		}
		out = append(out, PhaseTotal{
			Phase:      ph,
			Seconds:    float64(n) / 1e9,
			Count:      cnt,
			AllocBytes: c.allocBytes.Load(),
		})
	}
	return out
}

// WallSeconds reports the total wall time spent inside top-level scopes
// — the denominator phase seconds partition. Phase seconds always sum to
// exactly this value for a quiesced profiler.
func (p *Profiler) WallSeconds() float64 {
	if p == nil {
		return 0
	}
	return float64(p.wall.Load()) / 1e9
}
