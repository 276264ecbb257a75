// Package telemetry is the live observation layer of a run: a tick-sampled
// time series of the quantities the paper's control loop reasons about —
// power draw against the budget, sliding-window latency quantiles per
// region and per service, warm-zone utilization against the α/β bounds,
// normalized MCF, and migration/promotion rates — plus an online SLO
// monitor that raises typed obs events when the watched quantile breaches
// the required response time.
//
// The subsystem is passive by the same contract as the obs event layer:
// sampling draws no randomness, schedules nothing beyond its own periodic
// callback, and mutates no simulation state, so an instrumented run is
// byte-identical to an uninstrumented one. The steady-state sampling path
// is allocation-free (bench-gated); only the opt-in snapshot publication
// for the HTTP endpoint allocates, on the publisher's side of an atomic
// pointer swap.
package telemetry

import (
	"errors"
	"time"

	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
)

// DefaultSLOTarget is the required response time the monitor defaults to:
// the paper's 100 ms interactive-service bound (core.DefaultRTRef).
const DefaultSLOTarget = 100 * time.Millisecond

// ZoneNames names the three controller zones in Sample.ZoneW/ZoneGHz
// index order (matching fridge.Zone: Hot, Warm, Cold).
var ZoneNames = [3]string{"hot", "warm", "cold"}

// SLOOptions configures the online QoS monitor.
type SLOOptions struct {
	// Target is the required response time; 0 defaults to
	// DefaultSLOTarget.
	Target time.Duration
	// Quantile selects the watched window quantile: 0.5, 0.95 or 0.99
	// (anything else falls back to 0.95, the default).
	Quantile float64
	// TripTicks is how many consecutive over-target sampling ticks arm a
	// violation; ClearTicks how many under-target ticks clear it. Both
	// default to 3 — the hysteresis that keeps a noisy quantile from
	// flapping alerts.
	TripTicks, ClearTicks int
	// Grace suppresses evaluation before this simulation time (set it to
	// the warmup so cold-start transients never count as violations).
	Grace time.Duration
	// HeadroomFrac is the budget fraction under which a
	// BudgetHeadroomLow alert fires (default 0.05); the alert re-arms
	// once headroom recovers past twice the fraction, clamped to the
	// budget itself so fractions >= 0.5 still re-arm.
	HeadroomFrac float64
}

func (o *SLOOptions) fill() {
	if o.Target == 0 {
		o.Target = DefaultSLOTarget
	}
	if o.Quantile != 0.5 && o.Quantile != 0.99 {
		o.Quantile = 0.95
	}
	if o.TripTicks <= 0 {
		o.TripTicks = 3
	}
	if o.ClearTicks <= 0 {
		o.ClearTicks = 3
	}
	if o.HeadroomFrac <= 0 {
		o.HeadroomFrac = 0.05
	}
}

// quantileLabel returns the fixed label written into alert events.
func quantileLabel(q float64) obs.Quantile {
	switch q {
	case 0.5:
		return obs.P50
	case 0.99:
		return obs.P99
	default:
		return obs.P95
	}
}

// Options configures a Telemetry instance.
type Options struct {
	// Interval is the sampling period; 0 defaults to 1s (the control
	// interval, so each sample sees exactly one controller tick).
	Interval time.Duration
	// WindowTicks is the sliding-window width in sampling ticks; 0
	// defaults to 10 (a 10 s window at the default interval).
	WindowTicks int
	// Capacity bounds the retained sample ring; 0 defaults to 4096 rows
	// (over an hour at the default interval). Older rows are overwritten.
	Capacity int
	// AlertCapacity bounds the alert recorder; 0 defaults to 4096.
	AlertCapacity int
	// SLO configures the online QoS monitor.
	SLO SLOOptions
}

func (o *Options) fill() {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.WindowTicks <= 0 {
		o.WindowTicks = 10
	}
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.AlertCapacity <= 0 {
		o.AlertCapacity = 4096
	}
	o.SLO.fill()
}

// ControllerProbe is the zone-level state a criticality-aware controller
// exposes to the sampler. *fridge.Fridge implements it; other schemes
// bind no probe and their samples carry only cluster-level fields. Every
// method must be allocation-free — they run on the sampling hot path.
type ControllerProbe interface {
	// ZonePowerInto writes per-zone power draw (watts) indexed as
	// ZoneNames; false before the controller's first classified tick.
	ZonePowerInto(out *[3]float64) bool
	// ZoneFreqsInto writes per-zone frequency settings (GHz).
	ZoneFreqsInto(out *[3]float64) bool
	// WarmUtilization is the live warm-zone mean utilization Algorithm 1
	// compares against α/β.
	WarmUtilization() (float64, bool)
	// MCFInto writes the normalized MCF of each service, indexed by
	// service ID (the order of Bindings.Services).
	MCFInto(out []float64) bool
	// Promotions and Demotions are cumulative Algorithm 1 action counts.
	Promotions() uint64
	Demotions() uint64
}

// Bindings connects a Telemetry instance to one run. The engine
// constructs it in BuildE; everything is read-only from the sampler's
// perspective.
type Bindings struct {
	// Now is the simulation clock.
	Now func() sim.Time
	// Scheme names the power-management policy of the run.
	Scheme string
	// Regions and Services fix the per-series layout; Sample.Regions[i]
	// corresponds to Regions[i]. Order must be deterministic. Services
	// must list the application's services in spec order, so that
	// Services[i] is the service with ID i that ObserveExec receives.
	Regions  []string
	Services []string
	// Cluster returns the latest whole-cluster meter reading: draw and
	// budget cap in watts, capacity-weighted mean utilization, and
	// whether a window has closed yet.
	Cluster func() (powerW, budgetW, util float64, ok bool)
	// Migrations is the orchestrator's cumulative migration count.
	Migrations func() uint64
	// EventsDropped, when non-nil, returns how many controller events the
	// run's obs ring has overwritten — surfaced on /metrics and /status so
	// an undersized recorder is visible instead of silently lossy.
	EventsDropped func() uint64
	// Controller, when non-nil, exposes zone-level controller state.
	Controller ControllerProbe
	// Alpha and Beta are the warm-zone utilization bounds (0 without a
	// controller).
	Alpha, Beta float64
}

// SeriesStats is one latency series' sliding-window digest at a sampling
// tick.
type SeriesStats struct {
	// Count is the number of responses in the window.
	Count uint64
	// Window quantiles (one-bucket-width resolution, see
	// metrics.StreamingHistogram).
	P50, P95, P99 time.Duration
}

// Sample is one sampling tick's full capture. Rows live in a
// preallocated ring and are overwritten in place; Samples() returns
// copies.
type Sample struct {
	At sim.Time
	// Cluster power: draw, cap, cap-draw, and mean utilization.
	PowerW, BudgetW, HeadroomW, Util float64
	// HasCluster is false before the first meter window closes.
	HasCluster bool
	// Per-zone draw (watts) and frequency (GHz), indexed as ZoneNames;
	// valid only when HasZones (a controller is bound and has ticked).
	ZoneW    [3]float64
	ZoneGHz  [3]float64
	HasZones bool
	// Warm-zone utilization against the α/β bounds.
	WarmUtil    float64
	HasWarm     bool
	Alpha, Beta float64
	// Cumulative decision counters.
	Migrations, Promotions, Demotions uint64
	// Cumulative request completions and span completions observed.
	Requests, Spans uint64
	// All is the all-regions latency window; Regions and Services are
	// parallel to the bound name lists.
	All      SeriesStats
	Regions  []SeriesStats
	Services []SeriesStats
	// MCF is the live normalized MCF per bound service; valid when
	// HasMCF.
	MCF    []float64
	HasMCF bool
	// SLOActive is how many monitored series are in violation after this
	// tick; QoSViolationsTotal counts violation events since the start.
	SLOActive          int
	QoSViolationsTotal uint64
	// EventsDropped is the run's cumulative obs-ring overwrite count at
	// this tick (0 without a bound recorder); SamplesDropped counts
	// telemetry rows this ring has overwritten.
	EventsDropped  uint64
	SamplesDropped uint64
}

// Telemetry samples one run. Create with New, attach with engine.Config.
// Not safe for concurrent use except through the published snapshot.
type Telemetry struct {
	opt   Options
	b     Bindings
	bound bool

	all       *metrics.WindowedHistogram
	regions   []*metrics.WindowedHistogram
	services  []*metrics.WindowedHistogram
	regionIdx map[string]int

	samples []Sample
	start   int
	n       int
	dropped uint64

	alerts      *obs.Recorder
	slo         []sloSeries
	headroomLow bool
	active      int
	violations  uint64

	totalRequests uint64
	totalSpans    uint64

	publishing bool
	pub        publisher

	// prof, when non-nil, attributes each sampling tick's wall time to
	// the telemetry phase. Purely observational: it reads the wall clock
	// only, so profiled and unprofiled samples are byte-identical.
	prof *prof.Profiler

	// Scratch for the fused quantile walk (p50/p95/p99 + watched).
	qbuf [4]float64
	dbuf [4]time.Duration
}

// New returns an unbound Telemetry with the given options.
func New(opt Options) *Telemetry {
	opt.fill()
	t := &Telemetry{opt: opt}
	t.qbuf = [4]float64{0.5, 0.95, 0.99, opt.SLO.Quantile}
	return t
}

// Interval returns the sampling period (for the engine's Every wiring).
func (t *Telemetry) Interval() time.Duration { return t.opt.Interval }

// SetProfiler attaches a phase profiler to the sampling tick (nil
// detaches). Wired by the engine builder alongside Bind.
func (t *Telemetry) SetProfiler(p *prof.Profiler) { t.prof = p }

// Alerts returns the recorder carrying the monitor's QoSViolation,
// QoSRecovered and BudgetHeadroomLow events. It is owned by the
// telemetry layer — deliberately separate from engine.Config.Events, so
// attaching telemetry never changes the controller event stream.
func (t *Telemetry) Alerts() *obs.Recorder { return t.alerts }

// Bind attaches the instance to one run, allocating every buffer the
// sampling path will reuse. A Telemetry binds exactly once; reusing an
// instance across runs is an error (its windows would carry stale data).
func (t *Telemetry) Bind(b Bindings) error {
	if t.bound {
		return errors.New("telemetry: instance already bound to a run")
	}
	if b.Now == nil || b.Cluster == nil || b.Migrations == nil {
		return errors.New("telemetry: Bindings.Now, Cluster and Migrations are required")
	}
	t.b = b
	t.bound = true

	w := t.opt.WindowTicks
	t.all = metrics.NewWindowedHistogram(w)
	t.regions = make([]*metrics.WindowedHistogram, len(b.Regions))
	t.regionIdx = make(map[string]int, len(b.Regions))
	for i, r := range b.Regions {
		t.regions[i] = metrics.NewWindowedHistogram(w)
		t.regionIdx[r] = i
	}
	t.services = make([]*metrics.WindowedHistogram, len(b.Services))
	for i := range b.Services {
		t.services[i] = metrics.NewWindowedHistogram(w)
	}

	t.samples = t.newRows(t.opt.Capacity)

	// Monitored series: the all-regions aggregate plus each region. The
	// alert records name them by index.
	t.slo = make([]sloSeries, 1+len(b.Regions))
	series := make([]string, len(t.slo))
	series[0] = "all"
	for i, r := range b.Regions {
		series[1+i] = "region:" + r
	}
	for i, name := range series {
		t.slo[i] = newSLOSeries(name)
	}
	t.alerts = obs.NewRecorder(t.opt.AlertCapacity)
	t.alerts.Bind(obs.Names{Series: series})
	return nil
}

// ObserveResponse feeds one completed request into the latency windows
// (wired to trace.Collector.OnFinish).
func (t *Telemetry) ObserveResponse(region string, resp time.Duration) {
	t.totalRequests++
	t.all.Add(resp)
	if i, ok := t.regionIdx[region]; ok {
		t.regions[i].Add(resp)
	}
}

// ObserveExec feeds one span's execution time into the latency window
// of the service with ID service, the index of its name in
// Bindings.Services (wired to app.Executor.OnExec). IDs outside the bound
// services count as spans but feed no window.
func (t *Telemetry) ObserveExec(service int, exec time.Duration) {
	t.totalSpans++
	if uint(service) < uint(len(t.services)) {
		t.services[service].Add(exec)
	}
}

// nextRow returns the ring slot for the next sample, overwriting the
// oldest row once the ring is full.
func (t *Telemetry) nextRow() *Sample {
	var idx int
	if t.n < len(t.samples) {
		idx = (t.start + t.n) % len(t.samples)
		t.n++
	} else {
		idx = t.start
		t.start = (t.start + 1) % len(t.samples)
		t.dropped++
	}
	return &t.samples[idx]
}

// fillSeries digests one window into st with a single fused quantile
// walk; dbuf[3] afterwards holds the SLO-watched quantile.
func (t *Telemetry) fillSeries(st *SeriesStats, w *metrics.WindowedHistogram) {
	st.Count = w.Count()
	if st.Count == 0 {
		st.P50, st.P95, st.P99 = 0, 0, 0
		t.dbuf[3] = 0
		return
	}
	w.Quantiles(t.qbuf[:], t.dbuf[:])
	st.P50, st.P95, st.P99 = t.dbuf[0], t.dbuf[1], t.dbuf[2]
}

// Sample captures one tick: window digests, cluster and controller
// state, SLO evaluation, then window rotation. It is the engine's Every
// callback and the package's allocation-free hot path; only opt-in
// snapshot publication (EnablePublishing) allocates.
func (t *Telemetry) Sample() {
	t.prof.Enter(prof.Telemetry)
	defer t.prof.Exit()
	now := t.b.Now()
	row := t.nextRow()
	row.At = now

	// Digest windows before rotating, so the row covers the last
	// WindowTicks intervals including the one just ended.
	t.fillSeries(&row.All, t.all)
	allWatched := t.dbuf[3]
	for i, w := range t.regions {
		t.fillSeries(&row.Regions[i], w)
		t.sloWatch(1+i, t.dbuf[3])
	}
	t.sloWatch(0, allWatched)

	p, bud, util, ok := t.b.Cluster()
	row.PowerW, row.BudgetW, row.Util, row.HasCluster = p, bud, util, ok
	row.HeadroomW = bud - p

	for i, w := range t.services {
		t.fillSeries(&row.Services[i], w)
	}

	row.HasZones, row.HasWarm, row.HasMCF = false, false, false
	row.Promotions, row.Demotions = 0, 0
	if c := t.b.Controller; c != nil {
		row.HasZones = c.ZonePowerInto(&row.ZoneW)
		if row.HasZones {
			c.ZoneFreqsInto(&row.ZoneGHz)
		}
		row.WarmUtil, row.HasWarm = c.WarmUtilization()
		row.HasMCF = c.MCFInto(row.MCF)
		row.Promotions, row.Demotions = c.Promotions(), c.Demotions()
	}
	row.Alpha, row.Beta = t.b.Alpha, t.b.Beta
	row.Migrations = t.b.Migrations()
	row.Requests, row.Spans = t.totalRequests, t.totalSpans
	row.EventsDropped = 0
	if t.b.EventsDropped != nil {
		row.EventsDropped = t.b.EventsDropped()
	}
	row.SamplesDropped = t.dropped

	t.evalSLO(now, row)
	row.SLOActive = t.active
	row.QoSViolationsTotal = t.violations

	t.all.Rotate()
	for _, w := range t.regions {
		w.Rotate()
	}
	for _, w := range t.services {
		w.Rotate()
	}

	if t.publishing {
		t.publish(row)
	}
}

// Len returns the number of retained samples.
func (t *Telemetry) Len() int { return t.n }

// Dropped returns how many samples were overwritten by ring wraparound.
func (t *Telemetry) Dropped() uint64 { return t.dropped }

// Samples returns the retained samples oldest-first. Rows are deep
// copies.
func (t *Telemetry) Samples() []Sample {
	out := t.newRows(t.n)
	for i := range out {
		copyRowInto(&out[i], &t.samples[(t.start+i)%len(t.samples)])
	}
	return out
}

// newRows returns n zero rows sized to the bound regions and services.
// Each field's rows are windows of one slab, and a window's capacity is
// its length (a full slice expression), so an append into one row's
// window reallocates instead of writing into the next row.
func (t *Telemetry) newRows(n int) []Sample {
	nr, ns := len(t.b.Regions), len(t.b.Services)
	rows := make([]Sample, n)
	reg := make([]SeriesStats, n*nr)
	svc := make([]SeriesStats, n*ns)
	mcf := make([]float64, n*ns)
	for i := range rows {
		rows[i].Regions = reg[i*nr : (i+1)*nr : (i+1)*nr]
		rows[i].Services = svc[i*ns : (i+1)*ns : (i+1)*ns]
		rows[i].MCF = mcf[i*ns : (i+1)*ns : (i+1)*ns]
	}
	return rows
}

func cloneSample(s *Sample) Sample {
	c := *s
	c.Regions = append([]SeriesStats(nil), s.Regions...)
	c.Services = append([]SeriesStats(nil), s.Services...)
	c.MCF = append([]float64(nil), s.MCF...)
	return c
}
