package obs

import (
	"io"
	"strconv"
)

// AppendJSONLine appends rec as one JSON object (no trailing newline) to
// b, resolving its names through the recorder's tables. Field order is
// fixed — "at", "seq", "kind", then the kind's members in the order the
// Record table lists them — so equal event streams encode to equal
// bytes. rec must be a record the recorder still holds, since a
// zone_reassign's servers live in the recorder's arena.
func (r *Recorder) AppendJSONLine(b []byte, rec Record) []byte {
	b = append(b, `{"at":`...)
	b = strconv.AppendInt(b, int64(rec.At), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, rec.Kind.String())
	n := &r.names
	switch rec.Kind {
	case ZoneReassign:
		b = appendStr(b, "zone", rec.Zone.String())
		b = append(b, `,"servers":[`...)
		for i, s := range r.members[uint32(rec.From)-r.memBase : uint32(rec.To)-r.memBase] {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, name(n.Servers, s))
		}
		b = append(b, ']')
	case Migration:
		b = appendStr(b, "svc", name(n.Services, rec.Svc))
		b = appendStr(b, "from", name(n.Servers, rec.From))
		b = appendStr(b, "to", name(n.Servers, rec.To))
		b = appendStr(b, "zone", rec.Zone.String())
	case Promote, Demote:
		b = appendStr(b, "svc", name(n.Services, rec.Svc))
		b = appendStr(b, "level", rec.Level.String())
		b = appendStr(b, "reason", rec.Reason.String())
	case FreqChange:
		b = appendStr(b, "server", name(n.Servers, rec.Server))
		b = appendStr(b, "zone", rec.Zone.String())
		b = appendFloat(b, "ghz", rec.Value)
	case PowerSample:
		b = appendStr(b, "zone", rec.Zone.String())
		b = appendFloat(b, "watts", rec.Value)
		b = appendFloat(b, "budget", rec.Bound)
	case Crash, Restart:
		b = appendStr(b, "svc", name(n.Services, rec.Svc))
		b = appendStr(b, "node", name(n.Servers, rec.Server))
	case Scale:
		b = appendStr(b, "svc", name(n.Services, rec.Svc))
		b = appendInt(b, "from", int64(rec.From))
		b = appendInt(b, "to", int64(rec.To))
	case QoSViolation, QoSRecovered:
		b = appendStr(b, "series", name(n.Series, rec.Svc))
		b = appendStr(b, "quantile", rec.Quantile.String())
		b = appendFloat(b, "value_ms", rec.Value)
		b = appendFloat(b, "target_ms", rec.Bound)
	case BudgetHeadroomLow:
		b = appendFloat(b, "headroom_w", rec.Value)
		b = appendFloat(b, "cap_w", rec.Bound)
	}
	return append(appendCause(b, rec.Cause), '}')
}

// name resolves index i in a name table; None is the empty name.
func name(table []string, i int32) string {
	if i == None {
		return ""
	}
	return table[i]
}

// appendCause appends `,"cause":{...}` when a cause was captured; a zero
// Cause appends nothing, keeping cause-less encodings byte-identical to
// the pre-provenance format.
func appendCause(b []byte, c Cause) []byte {
	if c.Signal == NoSignal {
		return b
	}
	b = append(b, `,"cause":{"signal":`...)
	b = strconv.AppendQuote(b, c.Signal.String())
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, c.Value, 'g', -1, 64)
	b = append(b, `,"bound":`...)
	b = strconv.AppendFloat(b, c.Bound, 'g', -1, 64)
	return append(b, '}')
}

func appendStr(b []byte, key, val string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendQuote(b, val)
}

func appendInt(b []byte, key string, val int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, val, 10)
}

func appendFloat(b []byte, key string, val float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	// Shortest round-trippable representation: deterministic for a given
	// bit pattern, so goldens and cross-run diffs are stable.
	return strconv.AppendFloat(b, val, 'g', -1, 64)
}

// WriteJSONL writes the recorder's retained records as JSON Lines,
// oldest-first, one record per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	var b []byte
	for i := 0; i < r.Len(); i++ {
		b = r.AppendJSONLine(b[:0], *r.slot((r.start + i) % r.capacity))
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
