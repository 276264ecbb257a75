package power

import (
	"maps"
	"slices"
	"time"

	"servicefridge/internal/sim"
)

// MeterState is a snapshot of the meter that owns its data: the samples
// and totals stores are copied, and Restore copies them back into the
// meter's own buffers, so a branch run after one restore never writes into
// rows another snapshot reads. A row's ByTag map is shared, since sampling
// builds a fresh one per row and never mutates it. The per-server cursors
// are deep-copied because sampling rewrites them in place.
type MeterState struct {
	lastBusy    []time.Duration
	lastBusyTag []map[string]time.Duration
	last        []Sample
	lastAt      sim.Time
	samples     []Sample
	totals      []ClusterSample
	timer       sim.Timer
	started     bool
}

// Snapshot captures the meter's state.
func (m *Meter) Snapshot() *MeterState {
	s := &MeterState{
		lastBusy:    slices.Clone(m.lastBusy),
		lastBusyTag: make([]map[string]time.Duration, len(m.lastBusyTag)),
		last:        slices.Clone(m.last),
		lastAt:      m.lastAt,
		samples:     slices.Clone(m.samples),
		totals:      slices.Clone(m.totals),
		timer:       m.timer,
		started:     m.started,
	}
	for i, tags := range m.lastBusyTag {
		s.lastBusyTag[i] = maps.Clone(tags)
	}
	return s
}

// Restore rewinds the meter to the snapshot, which must come from a run
// of the same cluster. Each server's tag cursor map is cleared and
// refilled in place, so tags first seen after the snapshot are dropped and
// the cursor set matches a cold run's exactly.
func (m *Meter) Restore(s *MeterState) {
	m.lastBusy = append(m.lastBusy[:0], s.lastBusy...)
	m.last = append(m.last[:0], s.last...)
	m.lastAt = s.lastAt
	m.samples = append(m.samples[:0], s.samples...)
	m.totals = append(m.totals[:0], s.totals...)
	m.timer = s.timer
	m.started = s.started
	for i, saved := range s.lastBusyTag {
		clear(m.lastBusyTag[i])
		maps.Copy(m.lastBusyTag[i], saved)
	}
}

// SetFraction updates the budget fraction in place, with the same clamping
// as NewBudget — the warm-start sweep mutates one shared Budget between
// restored runs instead of rebuilding the engine.
func (b *Budget) SetFraction(fraction float64) {
	if fraction <= 0 {
		fraction = 0.01
	}
	if fraction > 1 {
		fraction = 1
	}
	b.Fraction = fraction
}
