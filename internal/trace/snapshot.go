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
// is ever handed out again. Open traces are deep-copied with their spans,
// because Restore revives them in place.
type CollectorState struct {
	nextID   uint64
	traces   []*Trace
	all      seriesState
	byRegion map[string]seriesState
	open     []openTraceSnap
}

type seriesState struct {
	finish   []sim.Time
	resp     []time.Duration
	unsorted bool
}

type openTraceSnap struct {
	ptr   *Trace
	val   Trace
	spans []Span
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
		open:     make([]openTraceSnap, len(c.openList)),
	}
	for region, rs := range c.byRegion {
		st.byRegion[region] = captureSeries(rs)
	}
	for i, t := range c.openList {
		st.open[i] = openTraceSnap{ptr: t, val: *t, spans: append([]Span(nil), t.Spans...)}
	}
	return st
}

// Restore rewinds the collector. Open traces are revived in place (the
// executor's requests hold their pointers) with their saved spans copied
// into the trace's own buffer; every other trace object returns to the
// free list. The record and span slabs are not rewound: a slot or window
// handed out after the snapshot may be listed by a later one, so records
// and their spans only ever go to fresh ones.
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

	// Every trace object is either open or free. Free them all, revive
	// the snapshot's open set, then drop the revived ones from the free
	// list. A trace's span buffer is always its own (the record copies
	// the spans into the span slab at finish), so the saved spans can be
	// copied into it.
	c.free = append(c.free, c.openList...)
	c.openList = c.openList[:0]
	for i := range st.open {
		o := &st.open[i]
		buf := o.ptr.Spans[:0]
		*o.ptr = o.val
		o.ptr.Spans = append(buf, o.spans...)
		o.ptr.openIdx = int32(i)
		c.openList = append(c.openList, o.ptr)
	}
	free := c.free[:0]
	for _, t := range c.free {
		if !isOpen(c.openList, t) {
			free = append(free, t)
		}
	}
	clear(c.free[len(free):])
	c.free = free
}

// isOpen reports whether t is the open trace at its recorded index (a
// free trace keeps the index it last had while open).
func isOpen(open []*Trace, t *Trace) bool {
	i := int(t.openIdx)
	return i < len(open) && open[i] == t
}
