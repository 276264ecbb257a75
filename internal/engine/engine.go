// Package engine assembles complete experiment runs: it builds the
// simulated testbed (Table 2), deploys the application with the
// orchestrator, attaches a power-management scheme (Table 3) through the
// scheme registry, drives the workload, and collects the latency and power
// results every figure of the paper is derived from.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/fridge"
	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/power"
	"servicefridge/internal/prof"
	"servicefridge/internal/schemes"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/trace"
	"servicefridge/internal/workload"
)

// SchemeName selects a power-management policy (Table 3). Any name
// registered with schemes.Register is valid; the constants below cover the
// paper's five policies.
type SchemeName string

// The evaluated schemes of Table 3.
const (
	Baseline      SchemeName = "Baseline"
	Capping       SchemeName = "Capping"
	PFirst        SchemeName = "P-first"
	TFirst        SchemeName = "T-first"
	ServiceFridge SchemeName = "ServiceFridge"
)

// AllSchemes lists the capped schemes compared in Figures 15-16, derived
// from the scheme registry in its CompareRank (paper presentation) order.
func AllSchemes() []SchemeName {
	names := schemes.Compared()
	out := make([]SchemeName, len(names))
	for i, n := range names {
		out[i] = SchemeName(n)
	}
	return out
}

// meterInterval is the power sampling period, shared by the meter and
// the TrackFreqOf frequency traces.
const meterInterval = time.Second

// Config describes one experiment run.
type Config struct {
	// Seed drives all randomness; equal configs with equal seeds yield
	// identical results.
	Seed uint64
	// Spec is the application; nil defaults to app.TwoRegionStudy().
	Spec *app.Spec
	// Scheme is the power-management policy; empty defaults to Baseline.
	Scheme SchemeName
	// BudgetFraction is the power budget as a fraction of maximum
	// required power (§6: 100% down to 75%), in (0, 1]; 0 defaults to 1.0.
	BudgetFraction float64
	// MaxRequired, when positive, is the measured maximum required power
	// the budget fraction applies to (from a calibration run — see
	// CalibrateMaxRequired). Zero falls back to the nameplate maximum.
	MaxRequired power.Watts
	// Workers is the mixed closed-loop worker-pool size; 0 leaves the
	// pool stopped (useful with Phases or PoolWorkers).
	Workers int
	// PoolWorkers starts one dedicated closed-loop pool per region with
	// the given sizes — the paper's §6.4 methodology ("access both A and
	// B with 25 paralleling workers at the same time").
	PoolWorkers map[string]int
	// OpenLoopRate starts an open-loop Poisson generator per region at
	// the given requests/second — for tail studies beyond the closed-loop
	// saturation point.
	OpenLoopRate map[string]float64
	// ExtraWorkers adds this many normal worker nodes beyond the paper's
	// five-node testbed, for scale-out studies.
	ExtraWorkers int
	// Mix is the region request mix; nil defaults to A:B = 1:1.
	Mix *workload.Mix
	// Phases optionally schedules workload changes (Figure 13); applied
	// from t=0.
	Phases []workload.Phase
	// Profile, when non-nil, makes the traffic time-varying: a
	// workload.Driver applies its per-region setpoints as simulation time
	// passes — arrival rates on per-region open loops by default, worker
	// counts on per-region closed pools with ProfileClosed. Generators
	// missing for a profile region are created automatically. The run
	// extends to at least the last setpoint (like Phases, with which
	// Profile conflicts).
	Profile *workload.Profile
	// ProfileClosed interprets Profile setpoints as closed-loop worker
	// counts instead of open-loop arrival rates.
	ProfileClosed bool
	// Warmup is discarded from latency results (default 5s).
	Warmup time.Duration
	// Duration is the measured period after warmup (default 30s).
	Duration time.Duration
	// ControlInterval is the scheme tick period (default 1s).
	ControlInterval time.Duration
	// PinTo pins services to named nodes before round-robin deployment
	// of the rest (§3.4 isolates the observed service on serverB).
	PinTo map[string]string
	// FixedFreqs sets per-node frequencies once at t=0 (used with
	// Baseline for the frequency-isolation studies of Figures 5-6).
	FixedFreqs map[string]cluster.GHz
	// KeepSpans retains full span lists on traces (memory-heavy; only
	// per-service analyses need it).
	KeepSpans bool
	// TrackFreqOf records the host frequency of these services at every
	// meter interval (Figure 13's frequency traces).
	TrackFreqOf []string
	// StartupDelay overrides the orchestrator's container startup time
	// when positive (migration-cost sensitivity studies).
	StartupDelay time.Duration
	// Events, when non-nil, records the controller event timeline of this
	// run: zone splits, migrations, criticality promotions, DVFS steps,
	// power samples, and container crashes/restarts. Recording is passive
	// (no RNG draws, no scheduling), so an instrumented run is otherwise
	// byte-identical to an uninstrumented one.
	Events *obs.Recorder
	// Telemetry, when non-nil, is bound to the run and sampled once per
	// telemetry interval: per-zone power, sliding-window latency
	// quantiles, warm-zone utilization, live MCF, and SLO monitoring.
	// Like Events it is passive — no RNG draws, no simulation mutation —
	// so an instrumented run is byte-identical to an uninstrumented one.
	Telemetry *telemetry.Telemetry
	// Ledger, when non-nil, seals one hash-chained LedgerEntry per control
	// interval: the tick's event stream, the engine's state digest and the
	// RNG cursor digest. An Events recorder is attached automatically if
	// none is configured (the ledger hashes events at emit time). Passive
	// like Events/Telemetry: identical runs seal byte-identical ledgers,
	// and attaching a ledger changes no other output.
	Ledger *obs.Ledger
	// Prof, when non-nil, is the run's phase profiler: wall time, call
	// counts, and (for control-rate phases) allocation bytes are
	// attributed to the build/dispatch/exec/tick/mcf/zones/telemetry/
	// encode/seal/snapshot phases. When nil and process-wide profiling is
	// enabled (prof.Enabled()), BuildE creates and registers one labelled
	// ProfLabel. Passive like Events/Telemetry/Ledger: the profiler reads
	// only the monotonic wall clock, so a profiled run's outputs are
	// byte-identical to an unprofiled run's.
	Prof *prof.Profiler
	// ProfLabel is the aggregation label for BuildE's auto-created
	// profiler (a figure ID, a sweep cell, a session name); empty
	// aggregates under "run". Ignored when Prof is set explicitly.
	ProfLabel string
}

func (c *Config) fill() {
	if c.Spec == nil {
		c.Spec = app.TwoRegionStudy()
	}
	if c.Scheme == "" {
		c.Scheme = Baseline
	}
	if c.BudgetFraction == 0 {
		c.BudgetFraction = 1.0
	}
	if c.Mix == nil {
		c.Mix = workload.Ratio(1, 1)
	}
	if c.Warmup == 0 {
		c.Warmup = 5 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	if c.ControlInterval == 0 {
		c.ControlInterval = time.Second
	}
}

// Validate reports the first problem that would make the configuration
// unbuildable: an unregistered scheme, malformed durations or fractions,
// or references to services and regions the application spec does not
// define. Zero values are valid (defaults are considered), so
// Config{}.Validate() == nil. Node-name references (PinTo targets,
// FixedFreqs keys) are checked against the constructed testbed in BuildE,
// which runs Validate first.
func (c Config) Validate() error {
	c.fill()
	if _, ok := schemes.Lookup(string(c.Scheme)); !ok {
		return fmt.Errorf("engine: unknown scheme %q (known: %s)",
			c.Scheme, strings.Join(schemes.Names(), ", "))
	}
	if !(c.BudgetFraction > 0 && c.BudgetFraction <= 1) {
		return fmt.Errorf("engine: BudgetFraction %v must be in (0, 1]", c.BudgetFraction)
	}
	if c.MaxRequired < 0 {
		return fmt.Errorf("engine: MaxRequired %v must not be negative", c.MaxRequired)
	}
	if c.Workers < 0 {
		return fmt.Errorf("engine: Workers %d must not be negative", c.Workers)
	}
	if c.ExtraWorkers < 0 {
		return fmt.Errorf("engine: ExtraWorkers %d must not be negative", c.ExtraWorkers)
	}
	if c.Warmup < 0 || c.Duration < 0 {
		return fmt.Errorf("engine: Warmup %v and Duration %v must not be negative", c.Warmup, c.Duration)
	}
	if c.ControlInterval <= 0 {
		return fmt.Errorf("engine: ControlInterval %v must be positive", c.ControlInterval)
	}
	if c.StartupDelay < 0 {
		return fmt.Errorf("engine: StartupDelay %v must not be negative", c.StartupDelay)
	}
	for _, svc := range sortedKeys(c.PinTo) {
		if c.Spec.Service(svc) == nil {
			return fmt.Errorf("engine: PinTo names unknown service %q", svc)
		}
		if c.PinTo[svc] == "" {
			return fmt.Errorf("engine: PinTo[%q] names an empty node", svc)
		}
	}
	for _, region := range sortedKeys(c.PoolWorkers) {
		if c.Spec.Region(region) == nil {
			return fmt.Errorf("engine: PoolWorkers names unknown region %q", region)
		}
		if c.PoolWorkers[region] < 0 {
			return fmt.Errorf("engine: PoolWorkers[%q] = %d must not be negative", region, c.PoolWorkers[region])
		}
	}
	for _, region := range sortedKeys(c.OpenLoopRate) {
		if c.Spec.Region(region) == nil {
			return fmt.Errorf("engine: OpenLoopRate names unknown region %q", region)
		}
		if c.OpenLoopRate[region] < 0 {
			return fmt.Errorf("engine: OpenLoopRate[%q] = %v must not be negative", region, c.OpenLoopRate[region])
		}
	}
	for _, svc := range c.TrackFreqOf {
		if c.Spec.Service(svc) == nil {
			return fmt.Errorf("engine: TrackFreqOf names unknown service %q", svc)
		}
	}
	if c.Profile != nil {
		if err := c.Profile.Validate(); err != nil {
			return err
		}
		for _, region := range c.Profile.Regions() {
			if c.Spec.Region(region) == nil {
				return fmt.Errorf("engine: Profile names unknown region %q", region)
			}
		}
		if len(c.Phases) > 0 {
			return fmt.Errorf("engine: Profile conflicts with Phases (one traffic schedule per run)")
		}
	}
	if c.ProfileClosed && c.Profile == nil {
		return fmt.Errorf("engine: ProfileClosed set without a Profile")
	}
	return nil
}

// sortedKeys returns m's keys in sorted order, so validation reports the
// same first error regardless of map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FreqPoint is one sample of a service's host frequency.
type FreqPoint struct {
	At sim.Time
	// Host names the node the sample was read from — the service's
	// current primary host. Series stay attributable across migrations:
	// a frequency step caused by the service moving to a different node
	// is distinguishable from a DVFS action on the same node.
	Host string
	Freq cluster.GHz
}

// Result carries everything a run produced.
type Result struct {
	Config    Config
	Engine    *sim.Engine
	Cluster   *cluster.Cluster
	Orch      *orchestrator.Orchestrator
	Meter     *power.Meter
	Collector *trace.Collector
	Executor  *app.Executor
	Gen       *workload.ClosedLoop
	Pools     map[string]*workload.ClosedLoop
	OpenLoops map[string]*workload.OpenLoop
	// Driver applies Config.Profile's setpoints; nil for steady runs.
	Driver *workload.Driver
	Fridge *fridge.Fridge // nil unless the scheme is ServiceFridge
	// Budget is the run's shared budget instance; the scheme context, the
	// meter's BudgetFn and the telemetry bindings all read through this
	// pointer, so SetBudgetFraction retargets every consumer at once.
	Budget *power.Budget
	// WarmupEnd is the cut before which latencies are discarded.
	WarmupEnd sim.Time
	// FreqSeries holds tracked per-service frequency traces.
	FreqSeries map[string][]FreqPoint

	// respCache and sumCache memoize Responses/Summary per region:
	// experiments query the same region repeatedly (mean, tails, counts)
	// and the collector's store is final once the run ends.
	respCache map[string]*metrics.LatencyStats
	sumCache  map[string]metrics.Summary
}

// Responses returns post-warmup response times for region ("" = all). The
// result is memoized; call ResetStats before re-querying if the simulation
// is advanced further after a query.
func (r *Result) Responses(region string) *metrics.LatencyStats {
	if s, ok := r.respCache[region]; ok {
		return s
	}
	s := metrics.FromSamples(r.Collector.ResponseAfter(region, r.WarmupEnd))
	if r.respCache == nil {
		r.respCache = make(map[string]*metrics.LatencyStats)
	}
	r.respCache[region] = s
	return s
}

// Summary returns the post-warmup latency summary for region, memoized
// like Responses.
func (r *Result) Summary(region string) metrics.Summary {
	if s, ok := r.sumCache[region]; ok {
		return s
	}
	s := r.Responses(region).Summarize()
	if r.sumCache == nil {
		r.sumCache = make(map[string]metrics.Summary)
	}
	r.sumCache[region] = s
	return s
}

// ResetStats drops the memoized latency statistics. Callers that query
// results mid-run and then resume the simulation must call it before
// querying again; runs driven by Run/RunE never need it.
func (r *Result) ResetStats() {
	r.respCache = nil
	r.sumCache = nil
}

// BuildE constructs a run without executing it, so callers can attach
// extra instrumentation before starting the clock. It returns an error —
// rather than panicking like Build — for invalid configurations: unknown
// schemes, bad budget fractions, and PinTo/FixedFreqs entries naming
// nodes that do not exist in the constructed testbed.
func BuildE(cfg Config) (*Result, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Prof == nil {
		// prof.New returns nil while profiling is disabled, keeping every
		// scope below a single pointer test.
		cfg.Prof = prof.New(cfg.ProfLabel)
	}
	pr := cfg.Prof
	pr.Enter(prof.Build)
	defer pr.Exit()
	eng := sim.NewEngine(cfg.Seed)
	eng.SetProfiler(pr)
	cl := cluster.DefaultTestbed(eng)
	for i := 0; i < cfg.ExtraWorkers; i++ {
		cl.AddServer(fmt.Sprintf("serverD%d", i+1), cluster.RoleNormalWorker, 6)
	}
	orch := orchestrator.New(cl)
	if cfg.StartupDelay > 0 {
		orch.StartupDelay = cfg.StartupDelay
	}

	// Deployment: pinned services first, the rest round-robin over the
	// remaining nodes (swarm default; pinned nodes stay exclusive to
	// their observed service, per the §3.1 isolation methodology).
	pinned := map[string]bool{}
	pinnedNodes := map[string]bool{}
	for _, svc := range cfg.Spec.PlacedServices() {
		if node, ok := cfg.PinTo[svc]; ok {
			if cl.Server(node) == nil {
				return nil, fmt.Errorf("engine: PinTo[%q] names unknown node %q (nodes: %s)",
					svc, node, strings.Join(nodeNames(cl), ", "))
			}
			orch.DeployPinned(svc, node)
			pinned[svc] = true
			pinnedNodes[node] = true
		}
	}
	var rest []string
	for _, svc := range cfg.Spec.PlacedServices() {
		if !pinned[svc] {
			rest = append(rest, svc)
		}
	}
	var free []*cluster.Server
	for _, n := range cl.Workers() {
		if !pinnedNodes[n.Name()] {
			free = append(free, n)
		}
	}
	orch.DeployRoundRobinOver(rest, free)

	col := trace.NewCollector()
	col.KeepSpans = cfg.KeepSpans
	exec := app.NewExecutor(eng, cfg.Spec, orch, col, eng.RNG().Stream("exec"))
	exec.SetProfiler(pr)

	model := power.DefaultModel()
	meter := power.NewMeter(cl, model, meterInterval)
	budgetVal := power.NewBudget(model, cl.Size(), cfg.BudgetFraction)
	budget := &budgetVal
	budget.Base = cfg.MaxRequired
	if cfg.Ledger != nil {
		// The ledger needs the event stream; attach a recorder if the
		// caller didn't. Events are hashed at emit time, so ring capacity
		// does not affect the ledger.
		if cfg.Events == nil {
			cfg.Events = obs.NewRecorder(0)
		}
		cfg.Events.SetLedger(cfg.Ledger)
	}
	if cfg.Events != nil {
		// Records name servers by cluster index and services by spec ID.
		cfg.Events.Bind(obs.Names{Servers: nodeNames(cl), Services: cfg.Spec.ServiceNames()})
		cfg.Events.SetProfiler(pr)
		orch.Rec = cfg.Events
		meter.Rec = cfg.Events
		meter.BudgetFn = func() power.Watts { return budget.Cap() }
	}
	ctx := &schemes.Context{Cluster: cl, Meter: meter, Budget: budget, Orch: orch, Rec: cfg.Events}

	res := &Result{
		Config: cfg, Engine: eng, Cluster: cl, Orch: orch, Meter: meter,
		Collector: col, Executor: exec, Budget: budget,
		WarmupEnd:  sim.Time(cfg.Warmup),
		FreqSeries: make(map[string][]FreqPoint),
	}

	// Scheme construction goes through the registry: extensions register
	// policies without this package enumerating them.
	reg, _ := schemes.Lookup(string(cfg.Scheme)) // Validate checked existence
	built := reg.New(schemes.BuildInput{Ctx: ctx, Spec: cfg.Spec})
	scheme := built.Scheme
	if f, ok := scheme.(*fridge.Fridge); ok {
		f.SetProfiler(pr)
		res.Fridge = f
	}
	var launcher workload.Launcher = exec
	if built.WrapLauncher != nil {
		launcher = built.WrapLauncher(exec)
	}

	res.Gen = workload.NewClosedLoop(eng, launcher, eng.RNG().Stream("workload"), cfg.Mix)
	res.Pools = make(map[string]*workload.ClosedLoop)
	res.OpenLoops = make(map[string]*workload.OpenLoop)
	profileRegions := map[string]bool{}
	if cfg.Profile != nil {
		for _, region := range cfg.Profile.Regions() {
			profileRegions[region] = true
		}
	}
	for _, region := range cfg.Spec.RegionNames() {
		regionMix := workload.NewMix([]string{region}, map[string]float64{region: 1})
		if cfg.PoolWorkers[region] > 0 || (cfg.ProfileClosed && profileRegions[region]) {
			pool := workload.NewClosedLoop(eng, launcher,
				eng.RNG().Stream("workload-"+region), regionMix)
			res.Pools[region] = pool
		}
		if cfg.OpenLoopRate[region] > 0 || (!cfg.ProfileClosed && profileRegions[region]) {
			ol := workload.NewOpenLoop(eng, launcher,
				eng.RNG().Stream("openloop-"+region), regionMix)
			res.OpenLoops[region] = ol
		}
	}
	if cfg.Profile != nil {
		res.Driver = workload.NewDriver(eng, cfg.Profile, res.OpenLoops, res.Pools, cfg.ProfileClosed)
	}

	// Wiring at t=0: fixed frequencies, meter, control loop, workload.
	for node, f := range cfg.FixedFreqs {
		s := cl.Server(node)
		if s == nil {
			return nil, fmt.Errorf("engine: FixedFreqs names unknown node %q (nodes: %s)",
				node, strings.Join(nodeNames(cl), ", "))
		}
		s.SetFreq(f)
	}
	meter.Start()
	if !reg.SkipTickWithFixedFreqs || len(cfg.FixedFreqs) == 0 {
		// Baseline with fixed frequencies must not reset them each tick.
		eng.Every(cfg.ControlInterval, scheme.Tick)
	}
	if cfg.Telemetry != nil {
		tel := cfg.Telemetry
		tel.SetProfiler(pr)
		b := telemetry.Bindings{
			Now:      eng.Now,
			Scheme:   string(cfg.Scheme),
			Regions:  cfg.Spec.RegionNames(),
			Services: cfg.Spec.ServiceNames(),
			Cluster: func() (float64, float64, float64, bool) {
				cs, ok := meter.LastCluster()
				return float64(cs.Total), float64(budget.Cap()), cs.Util, ok
			},
			Migrations: orch.Migrations,
			// Dropped is nil-safe, so this binds cleanly even when no
			// events recorder is attached (it then always reports 0).
			EventsDropped: cfg.Events.Dropped,
		}
		if res.Fridge != nil {
			b.Controller = res.Fridge
			b.Alpha, b.Beta = res.Fridge.Alpha, res.Fridge.Beta
		}
		// The executor reports spans by service ID, which indexes the
		// service windows only while Services lists the spec in ID order.
		for id, s := range b.Services {
			if cfg.Spec.ServiceByID(id).Name != s {
				return nil, fmt.Errorf("engine: telemetry service %d is %q, want %q (spec order)",
					id, s, cfg.Spec.ServiceByID(id).Name)
			}
		}
		if err := tel.Bind(b); err != nil {
			return nil, err
		}
		col.OnFinish = tel.ObserveResponse
		exec.OnExec = tel.ObserveExec
		// Registered after the control loop so a shared instant samples
		// post-tick state; telemetry only reads, so the extra calendar
		// entries shift seq numbers without reordering anything else.
		eng.Every(tel.Interval(), tel.Sample)
	}
	if len(cfg.TrackFreqOf) > 0 {
		eng.Every(meterInterval, func() {
			for _, svc := range cfg.TrackFreqOf {
				nodes := orch.NodesOf(svc)
				if len(nodes) == 0 {
					continue
				}
				res.FreqSeries[svc] = append(res.FreqSeries[svc], FreqPoint{
					At: eng.Now(), Host: nodes[0].Name(), Freq: nodes[0].Freq(),
				})
			}
		})
	}
	if cfg.Workers > 0 {
		res.Gen.SetWorkers(cfg.Workers)
	}
	for _, region := range cfg.Spec.RegionNames() {
		if pool, ok := res.Pools[region]; ok {
			n := cfg.PoolWorkers[region]
			eng.Schedule(0, func() { pool.SetWorkers(n) })
		}
		if ol, ok := res.OpenLoops[region]; ok {
			rate := cfg.OpenLoopRate[region]
			eng.Schedule(0, func() { ol.SetRate(rate) })
		}
	}
	if len(cfg.Phases) > 0 {
		res.Gen.Schedule(cfg.Phases)
	}
	if res.Driver != nil {
		// Armed after the per-region t=0 wiring above, so a profile
		// setpoint at t=0 overrides the (zero) static rates.
		res.Driver.Start()
	}
	if cfg.Ledger != nil {
		// Registered last of all periodic work so a seal at a shared
		// instant observes post-tick, post-sample state: same-instant
		// calendar order is registration order.
		led := cfg.Ledger
		eng.Every(cfg.ControlInterval, func() {
			pr.Enter(prof.Seal)
			led.Seal(eng.Now(), res.stateDigest(), eng.RNG().CursorDigest())
			pr.Exit()
		})
	}
	return res, nil
}

// nodeNames lists the testbed's node names for error messages.
func nodeNames(cl *cluster.Cluster) []string {
	var out []string
	for _, s := range cl.Servers() {
		out = append(out, s.Name())
	}
	return out
}

// Build constructs a run without executing it, panicking on an invalid
// configuration. Programmatic callers with untrusted configs (CLIs,
// services) should prefer BuildE.
func Build(cfg Config) *Result {
	res, err := BuildE(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// finish executes a built run to completion and stops the generators.
func finish(res *Result) {
	res.Engine.RunUntil(res.Total())
	res.Gen.Stop()
	for _, pool := range res.Pools {
		pool.Stop()
	}
	for _, ol := range res.OpenLoops {
		ol.SetRate(0)
	}
}

// RunE builds and executes the experiment to completion, returning an
// error instead of panicking on an invalid configuration.
func RunE(cfg Config) (*Result, error) {
	res, err := BuildE(cfg)
	if err != nil {
		return nil, err
	}
	finish(res)
	return res, nil
}

// Run builds and executes the experiment to completion, panicking on an
// invalid configuration.
func Run(cfg Config) *Result {
	res, err := RunE(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// SlowdownFromSpec adapts an application spec's per-service slowdown
// models to the trace layer's blame attribution. The returned function is
// safe for concurrent use and charges unknown services no inflation.
func SlowdownFromSpec(spec *app.Spec) trace.SlowdownFunc {
	names := spec.ServiceNames()
	curves := make(map[string]cluster.Slowdown, len(names))
	for _, name := range names {
		curves[name] = spec.Service(name).Slowdown()
	}
	return func(service string, ghz float64) float64 {
		c, ok := curves[service]
		if !ok {
			return 1
		}
		return c.At(cluster.GHz(ghz))
	}
}

// CritPathBlame runs the critical-path analysis over every post-warmup
// trace of a completed run, splitting frequency inflation out of
// execution time via the spec's slowdown models and the host frequency
// recorded on each span. Requires Config.KeepSpans: without spans every
// request's response time degrades to unattributed dispatch time. The
// inflation split reads the frequency at span start; under DVFS a span
// overlapping a frequency step is attributed at its start frequency
// (exact under FixedFreqs, an approximation otherwise).
func (r *Result) CritPathBlame() *trace.BlameAccumulator {
	acc := trace.NewBlameAccumulator(SlowdownFromSpec(r.Config.Spec))
	for _, t := range r.Collector.Traces() {
		if t.Finish < r.WarmupEnd {
			continue
		}
		acc.Observe(t)
	}
	return acc
}

// PeakDraw returns the highest metered cluster draw of the run. On an
// uncapped Baseline run it is the maximum required power
// CalibrateMaxRequired measures, so a caller that already ran that
// configuration reads the budget base from it instead of running it again.
func (r *Result) PeakDraw() power.Watts {
	var peak power.Watts
	for _, cs := range r.Meter.ClusterSamples() {
		if cs.Total > peak {
			peak = cs.Total
		}
	}
	return peak
}

// BudgetViolations counts the metered cluster samples whose draw exceeded
// the budget cap: over of samples.
func (r *Result) BudgetViolations() (over, samples int) {
	all := r.Meter.ClusterSamples()
	for _, cs := range all {
		if r.Budget.Violated(cs.Total) {
			over++
		}
	}
	return over, len(all)
}

// CalibrateMaxRequired measures the maximum required power of a workload:
// it runs the configuration uncapped (Baseline at 100%) and returns the
// peak cluster draw, the base the paper's §6 budget percentages refer to.
func CalibrateMaxRequired(cfg Config) power.Watts {
	cfg.Scheme = Baseline
	cfg.BudgetFraction = 1.0
	cfg.MaxRequired = 0
	return Run(cfg).PeakDraw()
}

func phaseLength(phases []workload.Phase) time.Duration {
	var t time.Duration
	for _, p := range phases {
		t += p.Duration
	}
	return t
}
