package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"servicefridge/internal/sim"
)

// The run ledger: a hash chain over everything a tick observably did.
//
// Every control interval the engine seals one LedgerEntry folding four
// things into a running FNV-1a chain: the tick's event stream (every
// Record emitted since the previous seal, hashed at emit time from its
// canonical JSONL bytes), the engine's state digest (per-server DVFS and
// queue state plus the meter's cluster telemetry), the RNG cursor digest
// (the position of every stream derived from the run's root RNG), and
// the tick time itself. Two runs are byte-identical iff their ledgers
// are, and the first divergent entry names the first tick where they
// differ — so a multi-megabyte diff collapses to one tick index, and the
// component hashes (events / state / rng) say *what* diverged there.
//
// The ledger is passive and allocation-free on the sealing path
// (bench-gated like the event layer): folding draws no RNG, schedules
// nothing, and mutates no simulation state. Hashing happens at emit time
// on the recorder tee, so ring-buffer wraparound cannot un-hash an event:
// the ledger covers the full stream even when the ring drops old records.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// LedgerEntry is one sealed tick of the run ledger.
type LedgerEntry struct {
	// At is the simulation time the tick was sealed at.
	At sim.Time
	// N counts the events folded into this tick.
	N uint64
	// Events is the FNV-1a hash of the tick's event JSONL bytes.
	Events uint64
	// State is the engine's state digest at seal time.
	State uint64
	// RNG is the RNG cursor digest at seal time.
	RNG uint64
	// Chain is the running chain value: the previous entry's Chain folded
	// with every field above. Equal prefixes have equal chains, so the
	// first differing Chain localizes the first divergent tick.
	Chain uint64
}

// Ledger accumulates the hash chain of one run. Create with NewLedger,
// attach with engine.Config.Ledger. Like the Recorder it is nil-safe and
// unsynchronized: one ledger belongs to one single-threaded run.
type Ledger struct {
	entries []LedgerEntry
	chain   uint64 // last sealed chain value
	evHash  uint64 // events folded since the last seal
	evCount uint64
	scratch []byte // reused event-encoding buffer
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{chain: fnvOffset, evHash: fnvOffset, scratch: make([]byte, 0, 512)}
}

// fold hashes one record r emitted into the pending tick, encoded with
// r's names into the ledger's reused buffer. Called from the Recorder's
// emit tee, before ring wraparound can discard the record.
func (l *Ledger) fold(r *Recorder, rec Record) {
	l.scratch = r.AppendJSONLine(l.scratch[:0], rec)
	l.add(l.scratch)
}

// add hashes one encoded record into the pending tick.
func (l *Ledger) add(line []byte) {
	h := l.evHash
	for _, c := range line {
		h ^= uint64(c)
		h *= fnvPrime
	}
	l.evHash = h
	l.evCount++
}

// fold64 folds one 64-bit word into h, low byte first.
func fold64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Seal closes the pending tick: the accumulated event hash, the supplied
// state and RNG digests and the tick time are folded into the chain and
// appended as one entry, and the event accumulator resets for the next
// tick. Allocation-free in steady state (the entries slice grows
// amortized, like every ring in the obs layer).
func (l *Ledger) Seal(at sim.Time, state, rng uint64) {
	if l == nil {
		return
	}
	h := fold64(l.chain, uint64(at))
	h = fold64(h, l.evHash)
	h = fold64(h, l.evCount)
	h = fold64(h, state)
	h = fold64(h, rng)
	l.chain = h
	l.entries = append(l.entries, LedgerEntry{
		At: at, N: l.evCount, Events: l.evHash, State: state, RNG: rng, Chain: h,
	})
	l.evHash = fnvOffset
	l.evCount = 0
}

// Len returns the number of sealed ticks.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	return len(l.entries)
}

// Entries returns the sealed ticks oldest-first. The slice is a copy.
func (l *Ledger) Entries() []LedgerEntry {
	if l == nil || len(l.entries) == 0 {
		return nil
	}
	return append([]LedgerEntry(nil), l.entries...)
}

// Chain returns the current chain value — a fingerprint of the whole run
// so far. Two runs with equal chains (and equal entry counts) produced
// identical ledgers.
func (l *Ledger) Chain() uint64 {
	if l == nil {
		return fnvOffset
	}
	return l.chain
}

// appendHex appends `"key":"<16-digit hex>"` preceded by a comma.
func appendHex(b []byte, key string, v uint64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":"`...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[(v>>shift)&0xf])
	}
	return append(b, '"')
}

// AppendLedgerLine appends entry t (0-based tick index) as one JSON
// object, fixed field order, no trailing newline.
func AppendLedgerLine(b []byte, t int, e LedgerEntry) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendUint(b, e.N, 10)
	b = appendHex(b, "events", e.Events)
	b = appendHex(b, "state", e.State)
	b = appendHex(b, "rng", e.RNG)
	b = appendHex(b, "chain", e.Chain)
	return append(b, '}')
}

// WriteJSONL writes the ledger as JSON Lines, one sealed tick per line,
// oldest-first. Same run, same bytes: the encoding is deterministic, so
// the CI determinism gates can diff ledgers directly.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	var b []byte
	for t, e := range l.entries {
		b = AppendLedgerLine(b[:0], t, e)
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ParseLedgerLine decodes one JSONL ledger line. Fields may come in any
// order and a missing one reads as zero; an unknown field, a malformed
// number or hex value, or anything after the object is an error.
func ParseLedgerLine(line string) (t int, e LedgerEntry, err error) {
	var l struct {
		T                         int
		At                        int64
		N                         uint64
		Events, State, RNG, Chain *string
	}
	d := json.NewDecoder(strings.NewReader(line))
	d.DisallowUnknownFields()
	if err := d.Decode(&l); err != nil {
		return 0, e, fmt.Errorf("obs: malformed ledger line %.40q: %w", line, err)
	}
	if d.InputOffset() != int64(len(line)) {
		return 0, e, fmt.Errorf("obs: ledger line %.40q runs on after its object", line)
	}
	e = LedgerEntry{At: sim.Time(l.At), N: l.N}
	for _, f := range [...]struct {
		hex *string
		v   *uint64
	}{{l.Events, &e.Events}, {l.State, &e.State}, {l.RNG, &e.RNG}, {l.Chain, &e.Chain}} {
		if f.hex == nil {
			continue
		}
		if *f.v, err = strconv.ParseUint(*f.hex, 16, 64); err != nil {
			return 0, e, fmt.Errorf("obs: bad ledger hex value %q", *f.hex)
		}
	}
	return l.T, e, nil
}

// ReadLedger parses a JSONL ledger stream written by WriteJSONL. Entries
// must be in tick order starting at 0.
func ReadLedger(r io.Reader) ([]LedgerEntry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []LedgerEntry
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		t, e, err := ParseLedgerLine(line)
		if err != nil {
			return nil, err
		}
		if t != len(out) {
			return nil, fmt.Errorf("obs: ledger tick %d out of order (want %d)", t, len(out))
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LedgerState is a deep copy of a ledger's chain, sealed entries and the
// pending (unsealed) tick accumulator, for engine Snapshot/Restore.
type LedgerState struct {
	entries []LedgerEntry
	chain   uint64
	evHash  uint64
	evCount uint64
}

// Snapshot captures the ledger's state; nil on a nil ledger.
func (l *Ledger) Snapshot() *LedgerState {
	if l == nil {
		return nil
	}
	return &LedgerState{
		entries: append([]LedgerEntry(nil), l.entries...),
		chain:   l.chain,
		evHash:  l.evHash,
		evCount: l.evCount,
	}
}

// Restore rewinds the ledger: sealed entries are copied back into the
// ledger's own backing array, and the pending accumulator resumes exactly
// where the snapshot left it, so a restored run re-seals the same chain.
func (l *Ledger) Restore(s *LedgerState) {
	if l == nil || s == nil {
		return
	}
	l.entries = append(l.entries[:0], s.entries...)
	l.chain = s.chain
	l.evHash = s.evHash
	l.evCount = s.evCount
}
