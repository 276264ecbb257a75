// Package obs is the deterministic controller event layer: every
// power-management decision the controller stack takes (zone splits,
// migrations, promotions, DVFS steps, power samples, crashes) is recorded
// as a Record keyed by simulation time. The recorder is a bounded ring
// buffer attached to an experiment run; because the simulator is
// single-threaded and records carry (sim.Time, sequence) keys, two runs
// with the same seed produce byte-identical event streams regardless of
// how many runs execute concurrently — the property the CI determinism
// gates diff for.
//
// A Record is a value with no pointers: names are small indices into
// tables the recorder binds once per run (Names) or into the fixed
// vocabularies below, and are resolved only when a record is encoded.
// Recording a decision therefore allocates nothing, and the ring holds
// nothing for the garbage collector to scan.
package obs

import "servicefridge/internal/sim"

// Kind discriminates a Record; its name is the "kind" JSON field.
type Kind uint8

// The record kinds. The table on Record lists the fields each one uses.
const (
	ZoneReassign Kind = iota + 1
	Migration
	Promote
	Demote
	FreqChange
	PowerSample
	Crash
	Restart
	Scale
	QoSViolation
	QoSRecovered
	BudgetHeadroomLow
)

var kindNames = [...]string{
	ZoneReassign: "zone_reassign", Migration: "migration", Promote: "promote",
	Demote: "demote", FreqChange: "freq_change", PowerSample: "power_sample",
	Crash: "crash", Restart: "restart", Scale: "scale",
	QoSViolation: "qos_violation", QoSRecovered: "qos_recovered",
	BudgetHeadroomLow: "budget_headroom_low",
}

func (k Kind) String() string { return kindNames[k] }

// Zone names the controller zone a record concerns. The first three
// follow fridge.Zone's order; Cluster is the whole-cluster reading of the
// meter and of the comparator schemes.
type Zone uint8

const (
	ZoneHot Zone = iota
	ZoneWarm
	ZoneCold
	ZoneCluster
)

var zoneNames = [...]string{"hot", "warm", "cold", "cluster"}

func (z Zone) String() string { return zoneNames[z] }

// Level is the criticality a promote or demote leaves a service at, in
// core.Criticality's order.
type Level uint8

var levelNames = [...]string{"low", "uncertain", "high"}

func (l Level) String() string { return levelNames[l] }

// Reason names what triggered a promote or demote.
type Reason uint8

const (
	WarmUtilHigh Reason = iota
	WarmUtilLow
	PowerShortage
)

var reasonNames = [...]string{"warm-util-high", "warm-util-low", "power-shortage"}

func (r Reason) String() string { return reasonNames[r] }

// Quantile is the latency quantile an SLO alert watches.
type Quantile uint8

const (
	P50 Quantile = iota
	P95
	P99
)

var quantileNames = [...]string{"p50", "p95", "p99"}

func (q Quantile) String() string { return quantileNames[q] }

// Signal names the input a control action was decided on: a zone's
// aggregate MCF demand against the total (zone sizing), a service's MCF
// against the cluster-wide total (migration ordering), the warm zone's
// mean utilization against Alpha or Beta (Algorithm 1), the irreducible
// predicted draw against the cap (shortage demotion), the predicted draw
// at the chosen frequencies against the cap (DVFS fitting), or the
// requested replica count against the live count (horizontal scaling).
type Signal uint8

const (
	NoSignal Signal = iota // no provenance captured
	MCFDemand
	MCFRank
	WarmUtil
	PowerGap
	BudgetFit
	ReplicaTarget
)

var signalNames = [...]string{
	"", "mcf-demand", "mcf-rank", "warm-util", "power-gap", "budget-fit", "replica-target",
}

func (s Signal) String() string { return signalNames[s] }

// Cause is the decision-provenance record attached to a control action:
// the triggering signal, its value at decision time, and the bound it
// was compared against. The zero value means "no provenance captured"
// and encodes to nothing, so cause-less streams keep their exact
// historical bytes.
type Cause struct {
	Signal Signal
	// Value is the signal's reading at decision time.
	Value float64
	// Bound is the threshold or reference the value was compared against.
	Bound float64
}

// None is the index of an absent server or service; it encodes as "".
const None = -1

// Record is one controller decision or observation with its
// simulation-time key and the tie-breaking sequence number assigned at
// emit time. Kind says which fields carry data; the rest stay zero:
//
//	kind                    fields (JSON members in order)
//	zone_reassign           Zone, members From..To (servers), Cause
//	migration               Svc, From, To (servers, None for neither), Zone, Cause
//	promote, demote         Svc, Level, Reason, Cause
//	freq_change             Server, Zone, Value (GHz), Cause
//	power_sample            Zone, Value (watts), Bound (budget)
//	crash, restart          Svc, Server (node)
//	scale                   Svc, From, To (replicas), Cause
//	qos_violation,
//	qos_recovered           Svc (SLO series), Quantile, Value, Bound (ms)
//	budget_headroom_low     Value (headroom W), Bound (cap W)
//
// Svc indexes the bound services (SLO series for the qos kinds), Server,
// and From and To of a migration, index the bound servers. A
// zone_reassign's From and To delimit its member servers in the
// recorder's arena (see Recorder.EmitZone); Members counts them.
type Record struct {
	At       sim.Time
	Seq      uint64
	Kind     Kind
	Zone     Zone
	Level    Level
	Reason   Reason
	Quantile Quantile
	Svc      int32
	Server   int32
	From, To int32
	Value    float64
	Bound    float64
	Cause    Cause
}

// Members returns the number of servers a zone_reassign lists.
func (r Record) Members() int { return int(uint32(r.To) - uint32(r.From)) }

// Names are the per-run tables a recorder resolves record indices
// through: Servers by cluster.Server.Index, Services by app service ID,
// Series by SLO series (telemetry's alert recorder).
type Names struct {
	Servers  []string
	Services []string
	Series   []string
}
