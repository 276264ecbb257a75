package obs

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"servicefridge/internal/sim"
)

// servicesNamed binds services s0..s(n-1), so a record's Svc is its index.
func servicesNamed(r *Recorder, n int) {
	var svcs []string
	for i := 0; i < n; i++ {
		svcs = append(svcs, fmt.Sprintf("s%d", i))
	}
	r.Bind(Names{Servers: []string{"n"}, Services: svcs})
}

func TestRecorderRingBufferWraps(t *testing.T) {
	r := NewRecorder(4)
	servicesNamed(r, 6)
	for i := 0; i < 6; i++ {
		r.Emit(sim.Time(i), Record{Kind: Crash, Svc: int32(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d records", len(evs))
	}
	// Oldest two were overwritten: retained stream starts at seq 2 and
	// stays (time, seq)-monotonic.
	for i, rec := range evs {
		wantSeq := uint64(i + 2)
		if rec.Seq != wantSeq || rec.At != sim.Time(wantSeq) {
			t.Fatalf("record %d = (at %d, seq %d), want (at %d, seq %d)",
				i, rec.At, rec.Seq, wantSeq, wantSeq)
		}
		if rec.Svc != int32(wantSeq) {
			t.Fatalf("record %d carries wrong payload %+v", i, rec)
		}
	}
}

func TestRecorderUnderCapacityKeepsAll(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(1, Record{Kind: Promote, Level: 2, Reason: WarmUtilHigh})
	r.Emit(2, Record{Kind: Demote, Reason: WarmUtilLow})
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if evs[0].Kind != Promote || evs[1].Kind != Demote {
		t.Fatalf("order lost: %v then %v", evs[0].Kind, evs[1].Kind)
	}
}

func TestRecorderCapacityOne(t *testing.T) {
	r := NewRecorder(1)
	for i := 0; i < 5; i++ {
		r.Emit(sim.Time(i), Record{Kind: Crash, Svc: int32(i)})
	}
	if r.Len() != 1 || r.Dropped() != 4 {
		t.Fatalf("Len=%d Dropped=%d, want 1/4", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Seq != 4 || evs[0].Svc != 4 {
		t.Fatalf("capacity-1 ring should retain only the newest record, got %+v", evs)
	}
}

func TestRecorderExactlyFullDropsNothing(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 3; i++ {
		r.Emit(sim.Time(i), Record{Kind: Restart})
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d: filling to exactly capacity must not drop", r.Len(), r.Dropped())
	}
	// The very next emit crosses the boundary and drops exactly one.
	r.Emit(3, Record{Kind: Restart})
	if r.Len() != 3 || r.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d after boundary emit, want 3/1", r.Len(), r.Dropped())
	}
	if evs := r.Events(); evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Fatalf("retained seqs %d..%d, want 1..3", evs[0].Seq, evs[2].Seq)
	}
}

func TestRecorderMultipleWraps(t *testing.T) {
	const capacity, emits = 4, 26 // wraps the ring six times and then some
	r := NewRecorder(capacity)
	for i := 0; i < emits; i++ {
		r.Emit(sim.Time(i), Record{Kind: Scale, From: int32(i), To: int32(i + 1)})
	}
	if r.Len() != capacity || r.Dropped() != emits-capacity {
		t.Fatalf("Len=%d Dropped=%d, want %d/%d", r.Len(), r.Dropped(), capacity, emits-capacity)
	}
	for i, rec := range r.Events() {
		want := uint64(emits - capacity + i)
		if rec.Seq != want || rec.From != int32(want) {
			t.Fatalf("record %d = seq %d payload %+v, want seq %d", i, rec.Seq, rec, want)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	// None of these may panic.
	r.Bind(Names{Services: []string{"x"}})
	r.Emit(0, Record{Kind: Crash})
	r.EmitZone(0, ZoneHot, []int32{0}, Cause{})
	if r.Service("x") != None || r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should be the disabled event layer")
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	if c := NewRecorder(0).capacity; c != DefaultCapacity {
		t.Fatalf("default capacity = %d, want %d", c, DefaultCapacity)
	}
	if c := NewRecorder(-5).capacity; c != DefaultCapacity {
		t.Fatalf("negative capacity = %d, want %d", c, DefaultCapacity)
	}
}

// TestRecorderGrowsInChunks: the ring holds memory for the records it
// has seen, one chunk at a time, never more than its capacity.
func TestRecorderGrowsInChunks(t *testing.T) {
	const capacity = 2*chunkLen + 3
	r := NewRecorder(capacity)
	if len(r.chunks) != 0 {
		t.Fatalf("a new recorder holds %d chunks, want none", len(r.chunks))
	}
	for i := 1; i <= 3*capacity; i++ {
		r.Emit(sim.Time(i), Record{Kind: Restart})
		want := (min(i, capacity) + chunkLen - 1) / chunkLen
		if len(r.chunks) != want {
			t.Fatalf("after %d records: %d chunks, want %d", i, len(r.chunks), want)
		}
	}
	held := 0
	for _, c := range r.chunks {
		held += len(c)
	}
	if held != capacity {
		t.Fatalf("chunks hold %d slots, want the capacity %d", held, capacity)
	}
}

// TestRecorderServiceInterns: a name the run did not bind is appended
// to the recorder's own table, never to the caller's array.
func TestRecorderServiceInterns(t *testing.T) {
	backing := make([]string, 1, 4)
	backing[0] = "route"
	r := NewRecorder(4)
	r.Bind(Names{Services: backing})
	if i := r.Service("route"); i != 0 {
		t.Fatalf("bound service at %d, want 0", i)
	}
	if i, j := r.Service("extra"), r.Service("extra"); i != 1 || j != 1 {
		t.Fatalf("interned service at %d then %d, want 1 twice", i, j)
	}
	if backing[:2][1] != "" {
		t.Fatal("interning wrote into the caller's table")
	}
	r.Emit(1, Record{Kind: Scale, Svc: r.Service("extra"), From: 1, To: 2})
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if want := `{"at":1,"seq":0,"kind":"scale","svc":"extra","from":1,"to":2}` + "\n"; b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
}

// mark is one recorder snapshot with what the recorder held when it was
// taken, and the reference stream up to then.
type mark struct {
	state *RecorderState
	jsonl string
	len   int
	drop  uint64
	refs  []refRecord
}

// TestRecorderSnapshotRestoreAnyOrder: snapshots taken before, across and
// after ring wraparound and chunk boundaries restore in any order to
// exactly what the recorder held, with the arena rewound to the
// snapshot's members, and a continuation from a restored recorder
// encodes like the reference stream continued from the same point.
func TestRecorderSnapshotRestoreAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for _, capacity := range []int{1, 5, chunkLen + 3} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := NewRecorder(capacity)
			r.Bind(testNames)
			var refs []refRecord
			emit := func(n int) {
				for i := 0; i < n; i++ {
					refs = append(refs, emitRandom(rng, r, sim.Time(len(refs))))
				}
			}
			var marks []mark
			for len(marks) < 6 {
				marks = append(marks, mark{state: r.Snapshot(), jsonl: jsonl(t, r), len: r.Len(),
					drop: r.Dropped(), refs: append([]refRecord(nil), refs...)})
				emit(rng.IntN(capacity + chunkLen/2))
			}
			for round := 0; round < 12; round++ {
				m := marks[rng.IntN(len(marks))]
				r.Restore(m.state)
				if got := jsonl(t, r); got != m.jsonl || r.Len() != m.len || r.Dropped() != m.drop {
					t.Fatalf("round %d: restore differs from the snapshot (len %d/%d, dropped %d/%d)",
						round, r.Len(), m.len, r.Dropped(), m.drop)
				}
				if len(r.members) != len(m.state.members) {
					t.Fatalf("round %d: arena holds %d members after restore, snapshot %d",
						round, len(r.members), len(m.state.members))
				}
				refs = append([]refRecord(nil), m.refs...)
				emit(rng.IntN(2 * capacity))
				if got, want := jsonl(t, r), refJSONL(refs, r.Len()); got != want {
					t.Fatalf("round %d: continuation after restore differs from the reference", round)
				}
			}
		})
	}
}

// TestRecorderArenaStaysBounded: the zone-member arena is reclaimed as
// the ring wraps, so it holds at most about twice the retained members.
func TestRecorderArenaStaysBounded(t *testing.T) {
	r := NewRecorder(8)
	members := []int32{0, 1, 2, 3}
	for i := 0; i < 10*chunkLen; i++ {
		r.EmitZone(sim.Time(i), ZoneWarm, members, Cause{})
	}
	if live := 8 * len(members); len(r.members) > 2*live+len(members) {
		t.Fatalf("arena holds %d members for %d live", len(r.members), live)
	}
}

// jsonl returns the recorder's retained records as JSON Lines.
func jsonl(t *testing.T, r *Recorder) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// refJSONL encodes the last n reference records with the reference
// encoder.
func refJSONL(refs []refRecord, n int) string {
	var b []byte
	for _, ref := range refs[len(refs)-n:] {
		b = append(refAppendJSONLine(b, ref), '\n')
	}
	return string(b)
}
