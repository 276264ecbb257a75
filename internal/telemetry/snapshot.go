package telemetry

import (
	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
)

// State is a deep copy of a bound Telemetry's mutable state: the sliding
// latency windows (compact: occupied buckets only), the live sample rows,
// the SLO state machines, counters and the alert recorder. Bindings and
// options are construction-time and not captured.
type State struct {
	all      *metrics.WindowState
	regions  []*metrics.WindowState
	services []*metrics.WindowState

	rows    []Sample // deep copies of the live ring rows, oldest-first
	start   int
	n       int
	dropped uint64

	alerts      *obs.RecorderState
	slo         []sloSeries
	headroomLow bool
	active      int
	violations  uint64

	totalRequests uint64
	totalSpans    uint64
}

// Snapshot captures the instance's state. Panics if the instance was never
// bound (an unbound Telemetry has no state worth saving).
func (t *Telemetry) Snapshot() *State {
	if !t.bound {
		panic("telemetry: Snapshot of an unbound instance")
	}
	s := &State{
		all:           t.all.Save(),
		regions:       make([]*metrics.WindowState, len(t.regions)),
		services:      make([]*metrics.WindowState, len(t.services)),
		rows:          t.newRows(t.n),
		start:         t.start,
		n:             t.n,
		dropped:       t.dropped,
		alerts:        t.alerts.Snapshot(),
		slo:           append([]sloSeries(nil), t.slo...),
		headroomLow:   t.headroomLow,
		active:        t.active,
		violations:    t.violations,
		totalRequests: t.totalRequests,
		totalSpans:    t.totalSpans,
	}
	for i, w := range t.regions {
		s.regions[i] = w.Save()
	}
	for i, w := range t.services {
		s.services[i] = w.Save()
	}
	for i := range s.rows {
		copyRowInto(&s.rows[i], &t.samples[(t.start+i)%len(t.samples)])
	}
	return s
}

// Restore rewinds the instance. Every ring row outside the snapshot's live
// set is reset to pristine zero (rows are overwritten in place, and some
// row fields — ZoneW, MCF — are only written when their feature flag is
// set, so a dirty row would otherwise leak post-snapshot values into a
// later wraparound or CSV export).
func (t *Telemetry) Restore(s *State) {
	t.all.Load(s.all)
	for i, w := range t.regions {
		w.Load(s.regions[i])
	}
	for i, w := range t.services {
		w.Load(s.services[i])
	}
	for i := range t.samples {
		resetRow(&t.samples[i])
	}
	t.start = s.start
	t.n = s.n
	t.dropped = s.dropped
	for i := range s.rows {
		dst := &t.samples[(s.start+i)%len(t.samples)]
		copyRowInto(dst, &s.rows[i])
	}
	t.alerts.Restore(s.alerts)
	copy(t.slo, s.slo)
	t.headroomLow = s.headroomLow
	t.active = s.active
	t.violations = s.violations
	t.totalRequests = s.totalRequests
	t.totalSpans = s.totalSpans
}

// resetRow zeroes a ring row in place, preserving its preallocated
// Regions/Services/MCF backing arrays.
func resetRow(r *Sample) {
	reg, svc, mcf := r.Regions, r.Services, r.MCF
	*r = Sample{}
	for i := range reg {
		reg[i] = SeriesStats{}
	}
	for i := range svc {
		svc[i] = SeriesStats{}
	}
	for i := range mcf {
		mcf[i] = 0
	}
	r.Regions, r.Services, r.MCF = reg, svc, mcf
}

// copyRowInto copies src's contents into dst, reusing dst's backing arrays.
func copyRowInto(dst, src *Sample) {
	reg, svc, mcf := dst.Regions, dst.Services, dst.MCF
	*dst = *src
	dst.Regions = append(reg[:0], src.Regions...)
	dst.Services = append(svc[:0], src.Services...)
	dst.MCF = append(mcf[:0], src.MCF...)
}
