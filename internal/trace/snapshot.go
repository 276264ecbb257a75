package trace

import (
	"time"

	"servicefridge/internal/sim"
)

// CollectorState is a snapshot of the collector that owns its data: the
// finish-ordered series and the completed-record list are copied, and
// Restore copies them back into the collector's own buffers, so any
// snapshot can be restored at any time and in any order — a branch run
// after one restore never writes into memory another snapshot reads.
// Completed records themselves are shared by pointer: each is written
// once into a slab slot, with its spans in a span-slab window, and neither
// is ever handed out again. Open traces are copied with their spans,
// because Restore revives them in place.
type CollectorState struct {
	nextID   uint64
	traces   []*Trace
	all      seriesState
	byRegion map[string]seriesState
	open     sim.PoolState[Trace]
	// spans holds the open traces' spans, one after another in the
	// order of open.
	spans []Span
}

type seriesState struct {
	finish   []sim.Time
	resp     []time.Duration
	unsorted bool
}

func captureSeries(s *series) seriesState {
	return seriesState{
		finish:   append([]sim.Time(nil), s.finish...),
		resp:     append([]time.Duration(nil), s.resp...),
		unsorted: s.unsorted,
	}
}

func restoreSeries(s *series, st seriesState) {
	s.finish = append(s.finish[:0], st.finish...)
	s.resp = append(s.resp[:0], st.resp...)
	s.unsorted = st.unsorted
}

// Snapshot captures the collector's state.
func (c *Collector) Snapshot() *CollectorState {
	st := &CollectorState{
		nextID:   c.nextID,
		traces:   append([]*Trace(nil), c.traces...),
		all:      captureSeries(&c.all),
		byRegion: make(map[string]seriesState, len(c.byRegion)),
		open:     c.open.Snapshot(),
	}
	for region, rs := range c.byRegion {
		st.byRegion[region] = captureSeries(rs)
	}
	for _, t := range st.open.Values() {
		st.spans = append(st.spans, t.Spans...)
	}
	return st
}

// Restore rewinds the collector. Open traces are revived in place (the
// executor's requests hold their pointers) and every other trace object
// returns to the free list. A revived trace's Spans is the buffer it
// owned at the snapshot (a record copies its spans into the span slab, so
// no other trace shares it), and the saved spans are copied back into it.
// The record and span slabs are not rewound: a slot or window handed out
// after the snapshot may be listed by a later one, so records and their
// spans only ever go to fresh ones.
func (c *Collector) Restore(st *CollectorState) {
	c.nextID = st.nextID
	c.traces = append(c.traces[:0], st.traces...)
	restoreSeries(&c.all, st.all)
	// Per-region series are never deleted, so the live map holds every
	// region the snapshot saved; a region first seen after the snapshot
	// rewinds to empty, which is indistinguishable from it never having
	// been created.
	for region, rs := range c.byRegion {
		restoreSeries(rs, st.byRegion[region])
	}
	c.open.Restore(st.open)
	spans := st.spans
	for _, t := range st.open.Values() {
		spans = spans[copy(t.Spans, spans):]
	}
}
