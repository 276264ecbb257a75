package obs

import (
	"slices"

	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
)

// DefaultCapacity bounds a recorder's ring buffer when no explicit
// capacity is given: large enough for the longest experiment run (tens of
// events per control tick), small enough to stay cheap when attached
// everywhere.
const DefaultCapacity = 1 << 16

// The ring grows in chunks of chunkLen records as records arrive, so a
// recorder holds memory for the records it has seen, not for its
// capacity, and growing never copies a record.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// Recorder accumulates records in a bounded ring buffer. When the buffer
// is full the oldest records are overwritten and counted as dropped —
// recording never blocks or grows without bound.
//
// A Recorder is deliberately unsynchronized: one recorder belongs to one
// simulation run, and the simulator is single-threaded. All methods are
// nil-safe so instrumentation sites need no enabled-check; a nil *Recorder
// is the disabled event layer.
type Recorder struct {
	chunks   [][]Record
	capacity int
	start    int // slot of the oldest record; 0 until the ring wraps
	n        int // live records
	seq      uint64
	dropped  uint64
	names    Names
	// The zone-member arena: members[i] is at position memBase+i, and
	// positions before memHead belong to dropped records. Positions are
	// uint32 and may wrap; only their differences are used.
	members []int32
	memBase uint32
	memHead uint32
	ledger  *Ledger // optional emit tee; hashes before ring wraparound
	// prof, when non-nil, attributes emit cost (record build plus the
	// ledger fold) to the encode phase. Wall-clock reads only — the
	// recorded stream is byte-identical with or without it.
	prof *prof.Profiler
}

// NewRecorder returns a recorder holding at most capacity records;
// capacity <= 0 selects DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// Bind sets the name tables records index into. The engine binds the
// run's servers and services once per run; telemetry binds its SLO
// series.
func (r *Recorder) Bind(n Names) {
	if r == nil {
		return
	}
	// Clipped, so Service's appends never write into the caller's arrays.
	r.names = Names{Servers: slices.Clip(n.Servers), Services: slices.Clip(n.Services), Series: slices.Clip(n.Series)}
}

// Service returns the index of the named service in the bound table,
// appending the name if the run did not bind it. Emitters that know a
// service only by name (the orchestrator's lifecycle records) use it.
func (r *Recorder) Service(name string) int32 {
	if r == nil {
		return None
	}
	i := slices.Index(r.names.Services, name)
	if i < 0 {
		i = len(r.names.Services)
		r.names.Services = append(r.names.Services, name)
	}
	return int32(i)
}

// Emit records rec at simulation time at, assigning its sequence number.
// Emitting on a nil recorder is a no-op, so call sites never branch on
// whether observation is enabled. A zone_reassign goes through EmitZone.
func (r *Recorder) Emit(at sim.Time, rec Record) {
	if r == nil {
		return
	}
	r.prof.Enter(prof.Encode)
	r.emit(at, rec)
	r.prof.Exit()
}

// EmitZone records a zone_reassign: zone z now holds servers (server
// indices, in listing order), sized by cause c. The servers are copied
// into the recorder's arena.
func (r *Recorder) EmitZone(at sim.Time, z Zone, servers []int32, c Cause) {
	if r == nil {
		return
	}
	r.prof.Enter(prof.Encode)
	from := r.memBase + uint32(len(r.members))
	r.members = append(r.members, servers...)
	r.emit(at, Record{Kind: ZoneReassign, Zone: z, From: int32(from),
		To: int32(from + uint32(len(servers))), Cause: c})
	r.prof.Exit()
}

func (r *Recorder) emit(at sim.Time, rec Record) {
	rec.At, rec.Seq = at, r.seq
	r.seq++
	r.push(rec)
	if r.ledger != nil {
		r.ledger.fold(r, rec)
	}
}

// slot returns ring slot i.
func (r *Recorder) slot(i int) *Record { return &r.chunks[i>>chunkShift][i&(chunkLen-1)] }

// push stores rec as the newest record, overwriting the oldest when the
// ring is full.
func (r *Recorder) push(rec Record) {
	if r.n < r.capacity {
		if r.n>>chunkShift == len(r.chunks) {
			r.chunks = append(r.chunks, make([]Record, min(chunkLen, r.capacity-r.n)))
		}
		*r.slot(r.n) = rec
		r.n++
		return
	}
	old := r.slot(r.start)
	if old.Kind == ZoneReassign {
		r.dropMembers(uint32(old.To))
	}
	*old = rec
	if r.start++; r.start == r.capacity {
		r.start = 0
	}
	r.dropped++
}

// dropMembers releases the arena up to position end, the end of the
// dropped record's members, and compacts the arena once at least half of
// it is dead, so it stays bounded without allocating.
func (r *Recorder) dropMembers(end uint32) {
	r.memHead = end
	if dead := int(end - r.memBase); 2*dead >= len(r.members) {
		r.members = r.members[:copy(r.members, r.members[dead:])]
		r.memBase = end
	}
}

// Len returns the number of retained records.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// SetLedger attaches (or detaches, with nil) a run ledger: every record
// is hashed into the ledger's pending tick at emit time, so the ledger
// covers the full stream even after ring wraparound discards old records.
func (r *Recorder) SetLedger(l *Ledger) {
	if r == nil {
		return
	}
	r.ledger = l
}

// SetProfiler attaches (or detaches, with nil) a phase profiler; emits
// are then attributed to the encode phase.
func (r *Recorder) SetProfiler(p *prof.Profiler) {
	if r == nil {
		return
	}
	r.prof = p
}

// Dropped returns how many records were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the retained records oldest-first. The slice is a copy;
// mutating it does not affect the recorder.
func (r *Recorder) Events() []Record {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Record, r.n)
	for i := range out {
		out[i] = *r.slot((r.start + i) % r.capacity)
	}
	return out
}
