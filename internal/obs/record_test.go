package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"servicefridge/internal/sim"
)

// testNames are name tables whose entries need quoting and escaping: a
// quote, a backslash, control characters, non-ASCII, invalid UTF-8, a
// line separator and the empty name.
var testNames = Names{
	Servers:  []string{"serverA", "", `q"uote`, `back\slash`, "tab\tnl\n", "é✓", "\xff\xfe", "\x00ctl", "<a&b>", "serverD12"},
	Services: []string{"route", "seat", `sv"c`, "", "ünï", " sep", "config"},
	Series:   []string{"all", "region:A", `region:"B"`},
}

// testFloats are values strconv prints in different forms: signed zero,
// subnormals, the exponent switch at 1e21 and 1e-7, the extremes, and
// values with long shortest representations.
var testFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.8, 123.45, 131.072, 0.1 + 0.2,
	1e20, 1e21, -1e21, 1e-6, 1e-7, 5e-324, 2.225e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

func randomFloat(rng *rand.Rand) float64 {
	if rng.IntN(4) == 0 {
		return math.Float64frombits(rng.Uint64())
	}
	return testFloats[rng.IntN(len(testFloats))]
}

// randomCause returns a cause and its reference form: none, none with
// stray numbers (which must still encode to nothing), or one of every
// signal.
func randomCause(rng *rand.Rand) (Cause, refCause) {
	switch rng.IntN(4) {
	case 0:
		return Cause{}, refCause{}
	case 1:
		v, b := randomFloat(rng), randomFloat(rng)
		return Cause{Value: v, Bound: b}, refCause{Value: v, Bound: b}
	}
	c := Cause{Signal: Signal(1 + rng.IntN(len(signalNames)-1)), Value: randomFloat(rng), Bound: randomFloat(rng)}
	return c, refCause{Signal: c.Signal.String(), Value: c.Value, Bound: c.Bound}
}

// randomRecord draws a record of a random kind, its zone members, and
// the reference event it must encode like.
func randomRecord(rng *rand.Rand) (Record, []int32, refEvent) {
	n := testNames
	idx := func(table []string) (int32, string) {
		i := rng.IntN(len(table))
		return int32(i), table[i]
	}
	maybe := func(table []string) (int32, string) {
		if rng.IntN(4) == 0 {
			return None, ""
		}
		return idx(table)
	}
	c, rc := randomCause(rng)
	z := Zone(rng.IntN(len(zoneNames)))
	svc, svcName := idx(n.Services)
	srv, srvName := idx(n.Servers)
	v, b := randomFloat(rng), randomFloat(rng)
	switch kind := Kind(1 + rng.IntN(len(kindNames)-1)); kind {
	case ZoneReassign:
		members := make([]int32, rng.IntN(6))
		names := make([]string, len(members))
		for i := range members {
			members[i], names[i] = idx(n.Servers)
		}
		return Record{Kind: kind, Zone: z, Cause: c}, members, refZoneReassign{Zone: z.String(), Servers: names, Cause: rc}
	case Migration:
		from, fromName := maybe(n.Servers)
		to, toName := maybe(n.Servers)
		return Record{Kind: kind, Svc: svc, From: from, To: to, Zone: z, Cause: c}, nil,
			refMigration{Service: svcName, From: fromName, To: toName, Zone: z.String(), Cause: rc}
	case Promote, Demote:
		l, r := Level(rng.IntN(len(levelNames))), Reason(rng.IntN(len(reasonNames)))
		rec := Record{Kind: kind, Svc: svc, Level: l, Reason: r, Cause: c}
		if kind == Promote {
			return rec, nil, refPromote{Service: svcName, Level: l.String(), Reason: r.String(), Cause: rc}
		}
		return rec, nil, refDemote{Service: svcName, Level: l.String(), Reason: r.String(), Cause: rc}
	case FreqChange:
		return Record{Kind: kind, Server: srv, Zone: z, Value: v, Cause: c}, nil,
			refFreqChange{Server: srvName, Zone: z.String(), GHz: v, Cause: rc}
	case PowerSample:
		return Record{Kind: kind, Zone: z, Value: v, Bound: b}, nil, refPowerSample{Zone: z.String(), Watts: v, Budget: b}
	case Crash:
		return Record{Kind: kind, Svc: svc, Server: srv}, nil, refCrash{Service: svcName, Node: srvName}
	case Restart:
		return Record{Kind: kind, Svc: svc, Server: srv}, nil, refRestart{Service: svcName, Node: srvName}
	case Scale:
		from, to := int32(rng.Uint32()), int32(rng.IntN(8))
		return Record{Kind: kind, Svc: svc, From: from, To: to, Cause: c}, nil,
			refScale{Service: svcName, From: int(from), To: int(to), Cause: rc}
	case QoSViolation, QoSRecovered:
		series, seriesName := idx(n.Series)
		q := Quantile(rng.IntN(len(quantileNames)))
		rec := Record{Kind: kind, Svc: series, Quantile: q, Value: v, Bound: b}
		if kind == QoSViolation {
			return rec, nil, refQoSViolation{Series: seriesName, Quantile: q.String(), ValueMs: v, TargetMs: b}
		}
		return rec, nil, refQoSRecovered{Series: seriesName, Quantile: q.String(), ValueMs: v, TargetMs: b}
	default:
		return Record{Kind: BudgetHeadroomLow, Value: v, Bound: b}, nil, refBudgetHeadroomLow{HeadroomW: v, CapW: b}
	}
}

// emitRandom emits a random record into r at time at and returns the
// reference record it must encode like.
func emitRandom(rng *rand.Rand, r *Recorder, at sim.Time) refRecord {
	ref := refRecord{At: at, Seq: r.seq}
	rec, members, ev := randomRecord(rng)
	if rec.Kind == ZoneReassign {
		r.EmitZone(at, rec.Zone, members, rec.Cause)
	} else {
		r.Emit(at, rec)
	}
	ref.Ev = ev
	return ref
}

// TestRecordEncoderMatchesReference is the encoder property: random
// records of every kind, with names that need quoting, floats in every
// strconv form and zero and non-zero causes, encode to the bytes the
// typed reference events encode to, and a ledger folded from the
// recorder seals the chain a ledger folded from the reference bytes
// seals — at ring capacities on both sides of a chunk boundary, wrapping.
func TestRecordEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	kinds := map[string]int{}
	for _, capacity := range []int{1, 2, 7, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 3} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := NewRecorder(capacity)
			r.Bind(testNames)
			led, refLed := NewLedger(), NewLedger()
			r.SetLedger(led)
			var refs []refRecord
			var at sim.Time
			for i := 0; i < 2*capacity+50; i++ {
				at += sim.Time(rng.IntN(3))
				ref := emitRandom(rng, r, at)
				refs = append(refs, ref)
				kinds[ref.Ev.Kind()]++
				refLed.add(refAppendJSONLine(nil, ref))
				if rng.IntN(8) == 0 {
					led.Seal(at, uint64(i), 7)
					refLed.Seal(at, uint64(i), 7)
				}
			}
			if want := min(capacity, len(refs)); r.Len() != want || r.Dropped() != uint64(len(refs)-want) {
				t.Fatalf("Len=%d Dropped=%d after %d emits", r.Len(), r.Dropped(), len(refs))
			}
			got, want := jsonl(t, r), refJSONL(refs, r.Len())
			if got != want {
				gl, wl := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
				for i := range wl {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("line %d differs:\n got %s\nwant %s", i, gl[i], wl[i])
					}
				}
				t.Fatal("JSONL differs from the reference encoder")
			}
			if led.Chain() != refLed.Chain() || !slices.Equal(led.Entries(), refLed.Entries()) {
				t.Fatalf("ledger chain %x, reference %x", led.Chain(), refLed.Chain())
			}
		})
	}
	if len(kinds) != len(kindNames)-1 {
		t.Fatalf("drew %d kinds, want all %d: %v", len(kinds), len(kindNames)-1, kinds)
	}
}

// TestRecordAllocatesNothing: with the ring's chunks and the arena in
// place, recording a decision of any kind, hashed into a ledger, makes
// no heap object.
func TestRecordAllocatesNothing(t *testing.T) {
	r := NewRecorder(64)
	r.Bind(testNames)
	r.SetLedger(NewLedger())
	rng := rand.New(rand.NewPCG(3, 4))
	recs := make([]Record, 64)
	members := make([][]int32, len(recs))
	for i := range recs {
		recs[i], members[i], _ = randomRecord(rng)
	}
	emitAll := func() {
		for i, rec := range recs {
			if rec.Kind == ZoneReassign {
				r.EmitZone(sim.Time(i), rec.Zone, members[i], rec.Cause)
			} else {
				r.Emit(sim.Time(i), rec)
			}
		}
	}
	emitAll() // fills the ring and grows the arena and the ledger's buffer
	emitAll()
	if a := testing.AllocsPerRun(20, emitAll); a != 0 {
		t.Fatalf("recording %d records allocated %v objects", len(recs), a)
	}
}
