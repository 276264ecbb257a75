package engine

import (
	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/fridge"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/power"
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/trace"
	"servicefridge/internal/workload"
)

// RunState is a complete snapshot of a built run's mutable state, taken
// with Result.Snapshot and rewound with Result.Restore. It composes the
// per-package snapshots of every stateful component: the simulation
// calendar, cluster, orchestrator, meter, trace collector, executor,
// workload generators, the optional Fridge/Telemetry/Events instrumentation
// and the budget.
//
// A RunState owns its data and is immutable once taken — Restore only
// reads it, copying saved stores back into the run's own buffers — so
// any RunState of a run can be restored at any time and in any order,
// however the run was perturbed in between. One warmed-up run can be
// forked any number of times: ForkEach snapshots after warmup, then for
// each sweep cell restores, sets its budget fraction and Finishes.
// Every fork replays exactly the events a run built with the same
// configuration would execute, byte-identical outputs included.
type RunState struct {
	// owner is the Result the state was taken from: the only one it can
	// be restored into.
	owner   *Result
	eng     *sim.EngineState
	cluster *cluster.ClusterState
	orch    *orchestrator.State
	meter   *power.MeterState
	col     *trace.CollectorState
	exec    *app.ExecState
	gen     workload.ClosedLoopState
	pools   map[string]workload.ClosedLoopState
	open    map[string]workload.OpenLoopState
	driver  workload.DriverState // zero unless Config.Profile drives the run
	fridge  *fridge.State        // nil unless the scheme is ServiceFridge
	tel     *telemetry.State     // nil unless Config.Telemetry is bound
	events  *obs.RecorderState   // nil unless Config.Events records
	ledger  *obs.LedgerState     // nil unless Config.Ledger seals
	budget  power.Budget
	freq    map[string][]FreqPoint
}

// Now returns the simulation time the snapshot was taken at.
func (s *RunState) Now() sim.Time { return s.eng.Now() }

// Snapshot captures the run's complete state at the current simulation
// time.
func (r *Result) Snapshot() *RunState {
	// The profiler is deliberately not part of RunState: profiling
	// accumulates across restores (it measures the process, not the
	// simulated timeline), and keeping it out of the state is what makes
	// it invisible to warm-started forks.
	r.Config.Prof.Enter(prof.Snapshot)
	defer r.Config.Prof.Exit()
	s := &RunState{
		owner:   r,
		eng:     r.Engine.Snapshot(),
		cluster: r.Cluster.Snapshot(),
		orch:    r.Orch.Snapshot(),
		meter:   r.Meter.Snapshot(),
		col:     r.Collector.Snapshot(),
		exec:    r.Executor.Snapshot(),
		gen:     r.Gen.Snapshot(),
		pools:   make(map[string]workload.ClosedLoopState, len(r.Pools)),
		open:    make(map[string]workload.OpenLoopState, len(r.OpenLoops)),
		events:  r.Config.Events.Snapshot(),
		ledger:  r.Config.Ledger.Snapshot(),
		budget:  *r.Budget,
		freq:    make(map[string][]FreqPoint, len(r.FreqSeries)),
	}
	for region, pool := range r.Pools {
		s.pools[region] = pool.Snapshot()
	}
	for region, ol := range r.OpenLoops {
		s.open[region] = ol.Snapshot()
	}
	if r.Driver != nil {
		s.driver = r.Driver.Snapshot()
	}
	if r.Fridge != nil {
		s.fridge = r.Fridge.Snapshot()
	}
	if r.Config.Telemetry != nil {
		s.tel = r.Config.Telemetry.Snapshot()
	}
	for svc, pts := range r.FreqSeries {
		s.freq[svc] = append([]FreqPoint(nil), pts...)
	}
	return s
}

// Restore rewinds the run to a snapshot previously taken from it. The
// snapshot must come from this same Result — restore works by writing saved
// values back into the live object graph, because the calendar's event
// closures capture pointers into it — and Restore panics otherwise.
// Memoized latency statistics are dropped (ResetStats) since the collector
// store rewinds. Slices read from the run before a Restore (meter samples,
// frequency series, response views) are overwritten by it.
func (r *Result) Restore(s *RunState) {
	if s.owner != r {
		panic("engine: Restore of a RunState taken from a different Result " +
			"(a snapshot restores only into the run it was taken from)")
	}
	r.Config.Prof.Enter(prof.Snapshot)
	defer r.Config.Prof.Exit()
	r.Engine.Restore(s.eng)
	r.Cluster.Restore(s.cluster)
	r.Orch.Restore(s.orch)
	r.Meter.Restore(s.meter)
	r.Collector.Restore(s.col)
	r.Executor.Restore(s.exec)
	r.Gen.Restore(s.gen)
	for region, pool := range r.Pools {
		pool.Restore(s.pools[region])
	}
	for region, ol := range r.OpenLoops {
		ol.Restore(s.open[region])
	}
	if r.Driver != nil {
		r.Driver.Restore(s.driver)
	}
	if r.Fridge != nil {
		r.Fridge.Restore(s.fridge)
	}
	if r.Config.Telemetry != nil {
		r.Config.Telemetry.Restore(s.tel)
	}
	r.Config.Events.Restore(s.events)
	r.Config.Ledger.Restore(s.ledger)
	*r.Budget = s.budget
	r.Config.BudgetFraction = s.budget.Fraction
	for svc := range r.FreqSeries {
		if _, ok := s.freq[svc]; !ok {
			delete(r.FreqSeries, svc)
		}
	}
	for svc, pts := range s.freq {
		r.FreqSeries[svc] = append(r.FreqSeries[svc][:0], pts...)
	}
	r.ResetStats()
}

// SetBudgetFraction retargets the run's power budget in place. The scheme
// context, the meter's budget recording and the telemetry bindings all read
// the shared Budget instance, so the new cap takes effect on the next
// control tick. Budget sweeps call this between Restore and Finish to
// turn one warmed-up run into one sweep cell per fraction (ForkEach).
func (r *Result) SetBudgetFraction(fraction float64) {
	r.Budget.SetFraction(fraction)
	r.Config.BudgetFraction = r.Budget.Fraction
}

// WarmBarrier returns the last simulation instant at which the run's state
// is still provably independent of the budget fraction — the latest safe
// snapshot point for a budget sweep. The fraction is first read at the
// first control tick (ControlInterval); instrumented runs also read it at
// the first meter emission (meterInterval, when Events records) and the
// first telemetry sample (Telemetry.Interval). One nanosecond before the
// earliest of those, nothing budget-dependent has executed yet.
func (r *Result) WarmBarrier() sim.Time {
	cfg := r.Config
	barrier := cfg.ControlInterval
	if cfg.Events != nil && meterInterval < barrier {
		barrier = meterInterval
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Interval() < barrier {
		barrier = cfg.Telemetry.Interval()
	}
	return sim.Time(barrier) - 1
}

// Finish executes a built (or restored) run to completion: the clock
// advances to Warmup+Duration (or the phase schedule's end, if longer) and
// the generators stop. It is the second half of Build+Finish == Run, and
// the replay step of a fork.
func (r *Result) Finish() { finish(r) }
