package obs

import (
	"bytes"
	"strings"
	"testing"

	"servicefridge/internal/sim"
)

var ledgerNames = Names{Servers: []string{"serverA", "a", "b"}, Services: []string{"seat"}}

// sealSome runs a fixed emit/seal script against a fresh recorder+ledger
// pair and returns both.
func sealSome() (*Recorder, *Ledger) {
	rec := NewRecorder(8)
	rec.Bind(ledgerNames)
	led := NewLedger()
	rec.SetLedger(led)
	rec.Emit(10, Record{Kind: Promote, Svc: 0, Level: 2, Reason: WarmUtilHigh,
		Cause: Cause{Signal: WarmUtil, Value: 0.9, Bound: 0.75}})
	rec.Emit(20, Record{Kind: FreqChange, Server: 0, Zone: ZoneHot, Value: 1.2})
	led.Seal(1000, 42, 43)
	rec.Emit(1500, Record{Kind: Migration, Svc: 0, From: 1, To: 2, Zone: ZoneCold})
	led.Seal(2000, 44, 45)
	led.Seal(3000, 44, 45) // empty tick
	return rec, led
}

// TestLedgerDeterministicChain: the same script seals the same chain;
// any change to an event, a digest or a seal time changes it.
func TestLedgerDeterministicChain(t *testing.T) {
	_, a := sealSome()
	_, b := sealSome()
	if a.Chain() != b.Chain() || a.Len() != b.Len() {
		t.Fatalf("identical scripts sealed different ledgers: %x vs %x", a.Chain(), b.Chain())
	}
	ea, eb := a.Entries(), b.Entries()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	// Perturb one component: the chain must move.
	rec := NewRecorder(8)
	rec.Bind(ledgerNames)
	led := NewLedger()
	rec.SetLedger(led)
	rec.Emit(10, Record{Kind: Promote, Svc: 0, Level: 2, Reason: WarmUtilHigh,
		Cause: Cause{Signal: WarmUtil, Value: 0.9000001, Bound: 0.75}})
	rec.Emit(20, Record{Kind: FreqChange, Server: 0, Zone: ZoneHot, Value: 1.2})
	led.Seal(1000, 42, 43)
	if led.Entries()[0].Chain == ea[0].Chain {
		t.Fatal("perturbed cause value did not change the chain")
	}
}

// TestLedgerComponentsIsolate: the per-entry component hashes tell apart
// an event-stream change, a state change and an RNG change.
func TestLedgerComponentsIsolate(t *testing.T) {
	_, base := sealSome()
	e0 := base.Entries()[0]

	led := NewLedger()
	led.Seal(1000, 42, 99) // same (no) events, same state, different rng
	if got := led.Entries()[0]; got.RNG == e0.RNG || got.State != 42 {
		t.Fatalf("rng component did not isolate: %+v vs %+v", got, e0)
	}
	led2 := NewLedger()
	led2.Seal(1000, 77, 43)
	if got := led2.Entries()[0]; got.State == e0.State || got.RNG != 43 {
		t.Fatalf("state component did not isolate: %+v", got)
	}
}

// TestLedgerEmitTimeHashing: the ledger hashes events at emit time, so
// ring wraparound (drops) cannot change the ledger.
func TestLedgerEmitTimeHashing(t *testing.T) {
	big := NewRecorder(1024)
	bigLed := NewLedger()
	big.SetLedger(bigLed)
	tiny := NewRecorder(2) // will wrap and drop
	tinyLed := NewLedger()
	tiny.SetLedger(tinyLed)
	for _, r := range []*Recorder{big, tiny} {
		r.Bind(ledgerNames)
	}
	for i := 0; i < 10; i++ {
		ev := Record{Kind: FreqChange, Server: 0, Zone: ZoneHot, Value: float64(i)}
		big.Emit(sim.Time(i), ev)
		tiny.Emit(sim.Time(i), ev)
		big.EmitZone(sim.Time(i), ZoneWarm, []int32{int32(i % 3), 1}, Cause{})
		tiny.EmitZone(sim.Time(i), ZoneWarm, []int32{int32(i % 3), 1}, Cause{})
	}
	bigLed.Seal(100, 1, 2)
	tinyLed.Seal(100, 1, 2)
	if tiny.Dropped() == 0 {
		t.Fatal("tiny recorder did not wrap")
	}
	if bigLed.Chain() != tinyLed.Chain() {
		t.Fatal("ring wraparound changed the ledger chain")
	}
}

// TestLedgerJSONLRoundTrip: WriteJSONL bytes parse back to the exact
// entries, and re-encoding is byte-identical.
func TestLedgerJSONLRoundTrip(t *testing.T) {
	_, led := sealSome()
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	entries, err := ReadLedger(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	want := led.Entries()
	if len(entries) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(entries), len(want))
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entry %d round-trip mismatch: %+v vs %+v", i, entries[i], want[i])
		}
	}
	var again bytes.Buffer
	for i, e := range entries {
		again.Write(AppendLedgerLine(nil, i, e))
		again.WriteByte('\n')
	}
	if again.String() != first {
		t.Fatal("re-encoded ledger bytes differ")
	}
}

// TestLedgerParseErrors: malformed lines are rejected with errors, not
// silently skipped.
func TestLedgerParseErrors(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"t":0,"at":1,"n":0,"events":"xyz","state":"0","rng":"0","chain":"0"}`,
		`{"t":5,"at":1,"n":0,"events":"0","state":"0","rng":"0","chain":"0"}`, // out of order
		`{"t":0,"at":1,"n":0,"bogus":"0"}`,
		`{"t":0,"at":1.5,"n":0}`,
		`{"t":0,"at":1,"n":0}x`,
	} {
		if _, err := ReadLedger(strings.NewReader(bad + "\n")); err == nil {
			t.Fatalf("parse of %q succeeded, want error", bad)
		}
	}
}

// TestLedgerSnapshotRestore: a restored ledger re-seals to the same chain
// as an uninterrupted one, including a pending (unsealed) tick.
func TestLedgerSnapshotRestore(t *testing.T) {
	rec, led := sealSome()
	rec.Emit(2500, Record{Kind: Crash, Svc: 0, Server: 1}) // pending, unsealed
	snap := led.Snapshot()
	recSnap := rec.Snapshot() // event seq numbers are part of the hash

	// Diverge: extra events and seals...
	rec.Emit(2600, Record{Kind: Restart, Svc: 0, Server: 1})
	led.Seal(4000, 50, 51)
	divergedChain := led.Chain()

	// ...then rewind and replay the original continuation.
	led.Restore(snap)
	rec.Restore(recSnap)
	rec.Emit(2600, Record{Kind: Restart, Svc: 0, Server: 1})
	led.Seal(4000, 50, 51)
	if led.Chain() != divergedChain {
		t.Fatal("restored ledger did not re-seal the same chain")
	}
	if led.Len() != 4 {
		t.Fatalf("ledger has %d entries, want 4", led.Len())
	}

	// Nil-safety.
	var nilLed *Ledger
	nilLed.Seal(1, 2, 3)
	nilLed.Restore(nil)
	if nilLed.Snapshot() != nil || nilLed.Len() != 0 || nilLed.Entries() != nil {
		t.Fatal("nil ledger is not inert")
	}
	if err := nilLed.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseLedgerLine feeds arbitrary lines to the ledger parser cmd/simdiff
// reads ledgers with. Its seeds are lines AppendLedgerLine writes. An
// accepted line's (t, entry), re-encoded by AppendLedgerLine, must parse
// back unchanged.
func FuzzParseLedgerLine(f *testing.F) {
	_, led := sealSome()
	for t, e := range led.Entries() {
		f.Add(string(AppendLedgerLine(nil, t, e)))
	}
	f.Add(string(AppendLedgerLine(nil, 0, LedgerEntry{})))
	f.Add(string(AppendLedgerLine(nil, 1<<31, LedgerEntry{At: sim.Time(1<<63 - 1), N: 1<<64 - 1,
		Events: 1<<64 - 1, State: 1 << 63, RNG: 0xdeadbeef, Chain: 1})))
	f.Fuzz(func(t *testing.T, line string) {
		tick, e, err := ParseLedgerLine(line)
		if err != nil {
			return
		}
		again := AppendLedgerLine(nil, tick, e)
		tick2, e2, err := ParseLedgerLine(string(again))
		if err != nil {
			t.Fatalf("%q re-encoded as %q, which does not parse: %v", line, again, err)
		}
		if tick2 != tick || e2 != e {
			t.Fatalf("%q re-encoded as %q parses to (%d, %+v), want (%d, %+v)", line, again, tick2, e2, tick, e)
		}
	})
}
