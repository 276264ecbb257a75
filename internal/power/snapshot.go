package power

import (
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
	lastBusy    map[string]time.Duration
	lastBusyTag map[string]map[string]time.Duration
	lastAt      sim.Time
	samples     []Sample
	totals      []ClusterSample
	last        map[string]Sample
	timer       sim.Timer
	started     bool
}

// Snapshot captures the meter's state.
func (m *Meter) Snapshot() *MeterState {
	s := &MeterState{
		lastBusy:    make(map[string]time.Duration, len(m.lastBusy)),
		lastBusyTag: make(map[string]map[string]time.Duration, len(m.lastBusyTag)),
		lastAt:      m.lastAt,
		samples:     append([]Sample(nil), m.samples...),
		totals:      append([]ClusterSample(nil), m.totals...),
		last:        make(map[string]Sample, len(m.last)),
		timer:       m.timer,
		started:     m.started,
	}
	for name, d := range m.lastBusy {
		s.lastBusy[name] = d
	}
	for name, tags := range m.lastBusyTag {
		cp := make(map[string]time.Duration, len(tags))
		for tag, d := range tags {
			cp[tag] = d
		}
		s.lastBusyTag[name] = cp
	}
	for name, sm := range m.last {
		s.last[name] = sm
	}
	return s
}

// Restore rewinds the meter to the snapshot. The per-server tag cursor
// maps are reused in place; tags first seen after the snapshot are removed
// so the cursor set matches a cold run's exactly.
func (m *Meter) Restore(s *MeterState) {
	m.lastAt = s.lastAt
	m.samples = append(m.samples[:0], s.samples...)
	m.totals = append(m.totals[:0], s.totals...)
	m.timer = s.timer
	m.started = s.started
	clear(m.lastBusy)
	for name, d := range s.lastBusy {
		m.lastBusy[name] = d
	}
	for name, tags := range m.lastBusyTag {
		saved := s.lastBusyTag[name]
		if saved == nil {
			delete(m.lastBusyTag, name)
			continue
		}
		clear(tags)
		for tag, d := range saved {
			tags[tag] = d
		}
	}
	for name, saved := range s.lastBusyTag {
		if _, ok := m.lastBusyTag[name]; !ok {
			cp := make(map[string]time.Duration, len(saved))
			for tag, d := range saved {
				cp[tag] = d
			}
			m.lastBusyTag[name] = cp
		}
	}
	clear(m.last)
	for name, sm := range s.last {
		m.last[name] = sm
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
