package obs

import (
	"strconv"

	"servicefridge/internal/sim"
)

// The reference encoder: the twelve typed event structs that Record
// replaced, each with its own field encoder, as they were. The record
// encoder must match them byte for byte (TestRecordEncoderMatchesReference).

// refCause is the decision-provenance record attached to control action
// events: the triggering signal, its value at decision time, and the
// bound it was compared against. The zero value means "no provenance
// captured" and encodes to nothing, so cause-less streams keep their
// exact historical bytes. Causes are captured on the controller's
// allocation-free paths — a refCause is three words of value state, no
// pointers, no heap.
type refCause struct {
	// Signal names the triggering input: "mcf-demand" (zone sizing),
	// "mcf-rank" (migration ordering), "warm-util" (Algorithm 1),
	// "power-gap" (shortage demotion), "budget-fit" (DVFS fitting),
	// "replica-target" (horizontal scaling).
	Signal string
	// Value is the signal's reading at decision time.
	Value float64
	// Bound is the threshold or reference the value was compared against.
	Bound float64
}

// refAppendCause appends `,"cause":{...}` when a cause was captured; a zero
// refCause appends nothing, keeping cause-less encodings byte-identical to
// the pre-provenance format.
func refAppendCause(b []byte, c refCause) []byte {
	if c.Signal == "" {
		return b
	}
	b = append(b, `,"cause":{"signal":`...)
	b = strconv.AppendQuote(b, c.Signal)
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, c.Value, 'g', -1, 64)
	b = append(b, `,"bound":`...)
	b = strconv.AppendFloat(b, c.Bound, 'g', -1, 64)
	return append(b, '}')
}

// refEvent is one typed controller decision or observation. Implementations
// append their payload as JSON members in a fixed field order, which keeps
// the JSONL export stable and diffable.
type refEvent interface {
	// Kind is the short snake_case discriminator written to the "kind"
	// JSON field.
	Kind() string
	// refAppendFields appends the payload as `,"k":v` JSON members.
	refAppendFields(b []byte) []byte
}

// refZoneReassign snapshots one zone's server set for a control tick. The
// fridge emits one per zone per tick, so the stream always carries the
// full hot/warm/cold partition (Figure 9's server numbers over time).
type refZoneReassign struct {
	Zone    string
	Servers []string
	// Cause carries the zone's aggregate MCF demand against the total —
	// the proportional-split input that sized this zone.
	Cause refCause
}

func (refZoneReassign) Kind() string { return "zone_reassign" }

func (e refZoneReassign) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "zone", e.Zone)
	b = append(b, `,"servers":[`...)
	for i, s := range e.Servers {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, s)
	}
	b = append(b, ']')
	return refAppendCause(b, e.Cause)
}

// refMigration records one container move of the start-new-then-kill-old
// strategy: Service leaves From and lands on To inside Zone. From is empty
// when the move only adds a replica host; To is empty when it only drains
// one.
type refMigration struct {
	Service string
	From    string
	To      string
	Zone    string
	// Cause carries the service's MCF rank against the cluster-wide
	// total — why this zone claimed it.
	Cause refCause
}

func (refMigration) Kind() string { return "migration" }

func (e refMigration) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "svc", e.Service)
	b = refAppendStr(b, "from", e.From)
	b = refAppendStr(b, "to", e.To)
	b = refAppendStr(b, "zone", e.Zone)
	return refAppendCause(b, e.Cause)
}

// refPromote records an Algorithm 1 criticality promotion. Level is the
// effective level after the adjustment; Reason names the trigger.
type refPromote struct {
	Service string
	Level   string
	Reason  string
	// Cause carries the warm-zone utilization against Alpha — the
	// Algorithm 1 comparison that triggered the promotion.
	Cause refCause
}

func (refPromote) Kind() string { return "promote" }

func (e refPromote) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "svc", e.Service)
	b = refAppendStr(b, "level", e.Level)
	b = refAppendStr(b, "reason", e.Reason)
	return refAppendCause(b, e.Cause)
}

// refDemote records an Algorithm 1 or power-shortage criticality demotion.
type refDemote struct {
	Service string
	Level   string
	Reason  string
	// Cause carries the utilization-vs-Beta comparison (warm-util-low)
	// or the predicted draw against the cap (power-shortage).
	Cause refCause
}

func (refDemote) Kind() string { return "demote" }

func (e refDemote) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "svc", e.Service)
	b = refAppendStr(b, "level", e.Level)
	b = refAppendStr(b, "reason", e.Reason)
	return refAppendCause(b, e.Cause)
}

// refFreqChange records one server's DVFS actuation to a new frequency, with
// the zone that dictated it.
type refFreqChange struct {
	Server string
	Zone   string
	GHz    float64
	// Cause carries the predicted cluster draw at the chosen zone
	// frequencies against the budget cap — the fit the DVFS ladder
	// descent stopped at.
	Cause refCause
}

func (refFreqChange) Kind() string { return "freq_change" }

func (e refFreqChange) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "server", e.Server)
	b = refAppendStr(b, "zone", e.Zone)
	b = refAppendFloat(b, "ghz", e.GHz)
	return refAppendCause(b, e.Cause)
}

// refPowerSample is one power-meter window: the draw of Zone ("cluster" for
// the whole-cluster reading) against the admissible budget.
type refPowerSample struct {
	Zone   string
	Watts  float64
	Budget float64
}

func (refPowerSample) Kind() string { return "power_sample" }

func (e refPowerSample) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "zone", e.Zone)
	b = refAppendFloat(b, "watts", e.Watts)
	return refAppendFloat(b, "budget", e.Budget)
}

// refCrash records an abrupt container failure on Node.
type refCrash struct {
	Service string
	Node    string
}

func (refCrash) Kind() string { return "crash" }

func (e refCrash) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "svc", e.Service)
	return refAppendStr(b, "node", e.Node)
}

// refRestart records the auto-restart replacement of a crashed container.
type refRestart struct {
	Service string
	Node    string
}

func (refRestart) Kind() string { return "restart" }

func (e refRestart) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "svc", e.Service)
	return refAppendStr(b, "node", e.Node)
}

// refScale records a horizontal replica-count change of a service.
type refScale struct {
	Service string
	From    int
	To      int
	// Cause carries the requested replica target against the live count
	// at decision time.
	Cause refCause
}

func (refScale) Kind() string { return "scale" }

func (e refScale) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "svc", e.Service)
	b = refAppendInt(b, "from", int64(e.From))
	b = refAppendInt(b, "to", int64(e.To))
	return refAppendCause(b, e.Cause)
}

// refQoSViolation records the SLO monitor tripping: the watched quantile of
// Series' sliding latency window has stayed above the target long enough
// to clear the hysteresis. Values are in milliseconds to match the
// experiment tables.
type refQoSViolation struct {
	Series   string
	Quantile string
	ValueMs  float64
	TargetMs float64
}

func (refQoSViolation) Kind() string { return "qos_violation" }

func (e refQoSViolation) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "series", e.Series)
	b = refAppendStr(b, "quantile", e.Quantile)
	b = refAppendFloat(b, "value_ms", e.ValueMs)
	return refAppendFloat(b, "target_ms", e.TargetMs)
}

// refQoSRecovered records the SLO monitor clearing a prior refQoSViolation for
// Series after the watched quantile has stayed back under the target.
type refQoSRecovered struct {
	Series   string
	Quantile string
	ValueMs  float64
	TargetMs float64
}

func (refQoSRecovered) Kind() string { return "qos_recovered" }

func (e refQoSRecovered) refAppendFields(b []byte) []byte {
	b = refAppendStr(b, "series", e.Series)
	b = refAppendStr(b, "quantile", e.Quantile)
	b = refAppendFloat(b, "value_ms", e.ValueMs)
	return refAppendFloat(b, "target_ms", e.TargetMs)
}

// refBudgetHeadroomLow records cluster power headroom dropping below the
// monitor's warning fraction of the cap — the early signal that the next
// load increase will force DVFS throttling.
type refBudgetHeadroomLow struct {
	HeadroomW float64
	CapW      float64
}

func (refBudgetHeadroomLow) Kind() string { return "budget_headroom_low" }

func (e refBudgetHeadroomLow) refAppendFields(b []byte) []byte {
	b = refAppendFloat(b, "headroom_w", e.HeadroomW)
	return refAppendFloat(b, "cap_w", e.CapW)
}

func refAppendStr(b []byte, key, val string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendQuote(b, val)
}

func refAppendInt(b []byte, key string, val int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, val, 10)
}

func refAppendFloat(b []byte, key string, val float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	// Shortest round-trippable representation: deterministic for a given
	// bit pattern, so goldens and cross-run diffs are stable.
	return strconv.AppendFloat(b, val, 'g', -1, 64)
}

// refRecord is one reference event with its simulation-time key and
// sequence number.
type refRecord struct {
	At  sim.Time
	Seq uint64
	Ev  refEvent
}

// refAppendJSONLine appends rec as one JSON object (no trailing newline) to
// b. Field order is fixed — "at", "seq", "kind", then the event's payload
// in declaration order — so equal event streams encode to equal bytes.
func refAppendJSONLine(b []byte, rec refRecord) []byte {
	b = append(b, `{"at":`...)
	b = strconv.AppendInt(b, int64(rec.At), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, rec.Ev.Kind())
	b = rec.Ev.refAppendFields(b)
	return append(b, '}')
}
