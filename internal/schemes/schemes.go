// Package schemes implements the comparator power-management designs of
// Table 3, all topology-blind with respect to microservice criticality:
//
//	Baseline — no capping at all.
//	Capping  — peak power management from server utilization (uniform
//	           frequency chosen so the cluster fits the budget), after [14].
//	P-first  — fine-grained, high-power-as-first: repeatedly throttles the
//	           server drawing the most power until the budget holds.
//	T-first  — fine-grained, time-driven: slows the hosts of the fastest
//	           microservices first to meet the power constraint.
//
// ServiceFridge itself lives in internal/fridge; every scheme satisfies
// the same Scheme interface so the experiment engine can swap them.
package schemes

import (
	"sort"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/power"
)

// Scheme is a power-management policy driven by a periodic control tick.
type Scheme interface {
	// Name identifies the scheme in reports (Table 3 naming).
	Name() string
	// Tick runs one control interval: observe and actuate.
	Tick()
}

// Context bundles the observability and actuation surface every scheme
// shares: the cluster (DVFS knobs), the power meter (turbostat), the
// budget, and the orchestrator (service placement lookup).
type Context struct {
	Cluster *cluster.Cluster
	Meter   *power.Meter
	// Budget is shared by reference: warm-started sweeps retarget the cap
	// between forked cells with Budget.SetFraction and every scheme sees
	// the new value on its next tick.
	Budget *power.Budget
	Orch   *orchestrator.Orchestrator
	// Rec, when non-nil, receives the controller's decision events (zone
	// splits, migrations, DVFS steps). A nil recorder disables recording;
	// emit sites check for it first, so a tick without one boxes no event.
	Rec *obs.Recorder
}

// plan is a comparator's working set, sized once in its constructor and
// indexed by cluster.Server.Index: each server's load from the meter's
// latest window (power.Meter.LoadsInto) and the frequency the tick plans
// for it. Every prediction goes through power.Model.Predict, summed in
// server order, so a tick allocates nothing.
type plan struct {
	ctx   *Context
	loads []float64
	freq  []cluster.GHz
}

func newPlan(ctx *Context) plan {
	n := ctx.Cluster.Size()
	return plan{ctx: ctx, loads: make([]float64, n), freq: make([]cluster.GHz, n)}
}

// observe reads the meter's loads and the servers' current frequencies.
func (p *plan) observe() {
	p.ctx.Meter.LoadsInto(p.loads)
	for i, s := range p.ctx.Cluster.Servers() {
		p.freq[i] = s.Freq()
	}
}

// total predicts the cluster draw under the plan.
func (p *plan) total() power.Watts {
	var total power.Watts
	m := p.ctx.Meter.Model()
	for i, f := range p.freq {
		total += m.Predict(p.loads[i], f)
	}
	return total
}

// fits reports whether the predicted draw is within the budget's cap.
func (p *plan) fits() bool { return p.total() <= p.ctx.Budget.Cap() }

// stepDown lowers server i's planned frequency one P-state, reporting
// false when it is already at FreqMin.
func (p *plan) stepDown(i int) bool {
	if p.freq[i] <= cluster.FreqMin {
		return false
	}
	p.freq[i] = cluster.StepDown(p.freq[i])
	return true
}

// raise steps throttled servers back up while the prediction stays under
// the cap, so schemes recover when load falls.
func (p *plan) raise() {
	for guard := 0; guard < 13*len(p.freq); guard++ {
		raised := false
		for i, f := range p.freq {
			if f >= cluster.FreqMax {
				continue
			}
			p.freq[i] = cluster.StepUp(f)
			if p.fits() {
				raised = true
			} else {
				p.freq[i] = f
			}
		}
		if !raised {
			return
		}
	}
}

// apply actuates the planned frequencies in server order. With a
// recorder attached, every server whose frequency moves emits a
// freq_change in the cluster zone, carrying the plan's predicted draw
// against the cap as its cause.
func (p *plan) apply() {
	rec := p.ctx.Rec
	var fit obs.Cause
	if rec != nil {
		fit = obs.Cause{Signal: obs.BudgetFit, Value: float64(p.total()), Bound: float64(p.ctx.Budget.Cap())}
	}
	for i, s := range p.ctx.Cluster.Servers() {
		prev := s.Freq()
		s.SetFreq(p.freq[i])
		if rec != nil && s.Freq() != prev {
			rec.Emit(p.ctx.Cluster.Engine().Now(), obs.Record{
				Kind: obs.FreqChange, Server: int32(s.Index()), Zone: obs.ZoneCluster, Value: float64(s.Freq()), Cause: fit,
			})
		}
	}
}

// Baseline performs no power limiting: every server stays at FreqMax.
type Baseline struct{ ctx *Context }

// NewBaseline returns the no-capping scheme.
func NewBaseline(ctx *Context) *Baseline { return &Baseline{ctx: ctx} }

// Name implements Scheme.
func (b *Baseline) Name() string { return "Baseline" }

// Tick implements Scheme: it pins everything at FreqMax.
func (b *Baseline) Tick() { b.ctx.Cluster.SetAllFreq(cluster.FreqMax) }

// Capping manages peak power from server utilization: each tick it picks
// the highest uniform frequency whose predicted cluster draw fits the
// budget. It is the representative server-level peak-shaving comparator.
type Capping struct{ plan }

// NewCapping returns the uniform utilization-based capper.
func NewCapping(ctx *Context) *Capping { return &Capping{newPlan(ctx)} }

// Name implements Scheme.
func (c *Capping) Name() string { return "Capping" }

// pStates is the P-state ladder Capping searches from the top.
var pStates = cluster.PStates()

// Tick implements Scheme. When no P-state fits, the plan stays at the
// lowest, FreqMin.
func (c *Capping) Tick() {
	c.ctx.Meter.LoadsInto(c.loads)
	for i := len(pStates) - 1; i >= 0; i-- {
		for j := range c.freq {
			c.freq[j] = pStates[i]
		}
		if c.fits() {
			break
		}
	}
	c.apply()
}

// PFirst throttles the power-hungriest servers first: while the predicted
// draw exceeds the budget, the server with the highest current draw steps
// down one P-state; with headroom, the lowest-draw throttled server steps
// back up if it still fits.
type PFirst struct{ plan }

// NewPFirst returns the high-power-as-first scheme.
func NewPFirst(ctx *Context) *PFirst { return &PFirst{newPlan(ctx)} }

// Name implements Scheme.
func (p *PFirst) Name() string { return "P-first" }

// Tick implements Scheme.
func (p *PFirst) Tick() {
	p.observe()
	m := p.ctx.Meter.Model()
	for guard := 0; guard < 13*len(p.freq) && !p.fits(); guard++ {
		// Highest predicted draw that can still step down; the first
		// server in order wins a tie.
		victim := -1
		var worst power.Watts = -1
		for i, f := range p.freq {
			if f <= cluster.FreqMin {
				continue
			}
			if d := m.Predict(p.loads[i], f); d > worst {
				worst = d
				victim = i
			}
		}
		if victim < 0 {
			break
		}
		p.stepDown(victim)
	}
	p.raise()
	p.apply()
}

// TFirst slows the fastest microservices first (time-driven): services are
// ranked by profiled execution time ascending and their hosts step down in
// that order until the budget holds.
type TFirst struct {
	plan
	// order caches service names fastest-first.
	order []string
	// nodes is the reused buffer one service's placements are listed into.
	nodes []*cluster.Server
}

// NewTFirst returns the time-driven scheme. The spec supplies the offline
// execution-time profile.
func NewTFirst(ctx *Context, spec *app.Spec) *TFirst {
	t := &TFirst{plan: newPlan(ctx)}
	type se struct {
		name string
		exec time.Duration
	}
	var xs []se
	for _, rn := range spec.RegionNames() {
		r := spec.Region(rn)
		for _, c := range r.Calls() {
			xs = append(xs, se{c.Service, c.Exec})
		}
	}
	// Keep the fastest profile per service.
	best := map[string]time.Duration{}
	for _, x := range xs {
		if b, ok := best[x.name]; !ok || x.exec < b {
			best[x.name] = x.exec
		}
	}
	for name := range best {
		t.order = append(t.order, name)
	}
	sort.Slice(t.order, func(i, j int) bool {
		if best[t.order[i]] != best[t.order[j]] {
			return best[t.order[i]] < best[t.order[j]]
		}
		return t.order[i] < t.order[j]
	})
	return t
}

// Name implements Scheme.
func (t *TFirst) Name() string { return "T-first" }

// Order exposes the fastest-first service ranking (for tests/reports).
func (t *TFirst) Order() []string { return append([]string(nil), t.order...) }

// Tick implements Scheme.
func (t *TFirst) Tick() {
	t.observe()
	for guard := 0; guard < 13*len(t.order)+13*len(t.freq) && !t.fits(); guard++ {
		// Once no service host can step down, throttle anything left.
		if !t.stepFastest() && !t.stepAny() {
			break
		}
	}
	t.raise()
	t.apply()
}

// stepFastest steps down the first host, in placement order, of the
// fastest service that has one above FreqMin.
func (t *TFirst) stepFastest() bool {
	for _, svc := range t.order {
		t.nodes = t.ctx.Orch.AppendNodesOf(t.nodes[:0], svc)
		for _, n := range t.nodes {
			if t.stepDown(n.Index()) {
				return true
			}
		}
	}
	return false
}

// stepAny steps down the first server, in server order, above FreqMin.
func (t *TFirst) stepAny() bool {
	for i := range t.freq {
		if t.stepDown(i) {
			return true
		}
	}
	return false
}
