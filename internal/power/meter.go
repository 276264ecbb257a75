package power

import (
	"sort"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// Sample is one meter reading for one server over one sampling window.
type Sample struct {
	At     sim.Time
	Server string
	Freq   cluster.GHz
	Util   float64
	Power  Watts
	// ByTag splits the dynamic component across the microservices that
	// kept the server busy in the window, proportionally to their busy
	// core time — the per-service power attribution behind Figure 13.
	ByTag map[string]Watts
}

// ClusterSample aggregates one window across all servers.
type ClusterSample struct {
	At      sim.Time
	Total   Watts
	Dynamic Watts
	Util    float64 // capacity-weighted mean utilization
}

// Meter periodically samples every server of a cluster, exactly as the
// paper polls turbostat. Start it once; readings accumulate until the run
// ends. Sampling is passive: it never perturbs the cluster.
type Meter struct {
	eng      *sim.Engine
	cl       *cluster.Cluster
	model    Model
	interval time.Duration

	// Rec, when non-nil, receives one cluster-wide PowerSample event per
	// sampling window (zone "cluster"). BudgetFn supplies the admissible
	// draw recorded alongside; nil records a zero budget.
	Rec      *obs.Recorder
	BudgetFn func() Watts

	// Per-server state by cluster.Server.Index, sized in Start: the busy
	// and per-tag busy cursors of the open window, and the latest sample.
	lastBusy    []time.Duration
	lastBusyTag []map[string]time.Duration
	last        []Sample
	lastAt      sim.Time

	samples []Sample
	totals  []ClusterSample
	timer   sim.Timer
	started bool
}

// NewMeter creates a meter over cl using model, sampling every interval.
func NewMeter(cl *cluster.Cluster, model Model, interval time.Duration) *Meter {
	if interval <= 0 {
		interval = time.Second
	}
	return &Meter{eng: cl.Engine(), cl: cl, model: model, interval: interval}
}

// Model returns the power model in use.
func (m *Meter) Model() Model { return m.model }

// Start begins periodic sampling over the cluster's servers, which must
// all have been added by then. Calling Start twice is a no-op.
func (m *Meter) Start() {
	if m.started {
		return
	}
	m.started = true
	m.lastAt = m.eng.Now()
	n := m.cl.Size()
	m.lastBusy = make([]time.Duration, n)
	m.lastBusyTag = make([]map[string]time.Duration, n)
	m.last = make([]Sample, n)
	for i, s := range m.cl.Servers() {
		m.lastBusy[i] = s.BusyCoreTime()
		m.lastBusyTag[i] = map[string]time.Duration{}
		for _, tag := range s.Tags() {
			m.lastBusyTag[i][tag] = s.BusyCoreTimeByTag(tag)
		}
	}
	m.timer = m.eng.Every(m.interval, m.sample)
}

// Stop halts sampling.
func (m *Meter) Stop() {
	if m.started {
		m.timer.Stop()
		m.started = false
	}
}

func (m *Meter) sample() {
	now := m.eng.Now()
	window := now.Sub(m.lastAt)
	if window <= 0 {
		return
	}
	var total, dynamic Watts
	var utilSum float64
	var coreSum int
	for i, s := range m.cl.Servers() {
		busy := s.BusyCoreTime()
		delta := busy - m.lastBusy[i]
		m.lastBusy[i] = busy
		u := cluster.Utilization(delta, s.Cores(), window)
		p := m.model.Power(s.Freq(), u)
		dyn := p - m.model.Idle

		byTag := map[string]Watts{}
		prevTags := m.lastBusyTag[i]
		if delta > 0 && dyn > 0 {
			for _, tag := range s.Tags() {
				cum := s.BusyCoreTimeByTag(tag)
				td := cum - prevTags[tag]
				prevTags[tag] = cum
				if td > 0 {
					byTag[tag] = dyn * Watts(float64(td)/float64(delta))
				}
			}
		} else {
			for _, tag := range s.Tags() {
				prevTags[tag] = s.BusyCoreTimeByTag(tag)
			}
		}

		sample := Sample{
			At: now, Server: s.Name(), Freq: s.Freq(), Util: u, Power: p, ByTag: byTag,
		}
		m.samples = append(m.samples, sample)
		m.last[i] = sample
		total += p
		dynamic += dyn
		utilSum += u * float64(s.Cores())
		coreSum += s.Cores()
	}
	cs := ClusterSample{At: now, Total: total, Dynamic: dynamic}
	if coreSum > 0 {
		cs.Util = utilSum / float64(coreSum)
	}
	m.totals = append(m.totals, cs)
	m.lastAt = now
	if m.Rec != nil {
		var budget Watts
		if m.BudgetFn != nil {
			budget = m.BudgetFn()
		}
		m.Rec.Emit(now, obs.Record{
			Kind: obs.PowerSample, Zone: obs.ZoneCluster, Value: float64(total), Bound: float64(budget),
		})
	}
}

// Samples returns all per-server readings in time order.
func (m *Meter) Samples() []Sample { return m.samples }

// ClusterSamples returns all whole-cluster readings in time order.
func (m *Meter) ClusterSamples() []ClusterSample { return m.totals }

// LastCluster returns the most recent whole-cluster reading and true, or a
// zero sample and false before the first window closes.
func (m *Meter) LastCluster() (ClusterSample, bool) {
	if len(m.totals) == 0 {
		return ClusterSample{}, false
	}
	return m.totals[len(m.totals)-1], true
}

// LastServer returns the most recent reading for the server with
// cluster.Server.Index i and true, or a zero sample and false before the
// first window closes. Every window samples every server.
func (m *Meter) LastServer(i int) (Sample, bool) {
	if len(m.totals) == 0 {
		return Sample{}, false
	}
	return m.last[i], true
}

// LoadsInto writes each server's load in FreqMax-core units into loads,
// by cluster.Server.Index: the latest window's utilization at frequency f
// carries util·f/FreqMax of the work a core does at FreqMax. A backlogged
// server (non-empty queue) reads 1, since it would absorb all offered
// capacity at any P-state, and so does a server not sampled yet, the
// conservative choice for a peak-shaving controller. Model.Predict turns a
// load back into a draw at any frequency.
func (m *Meter) LoadsInto(loads []float64) {
	for i, s := range m.cl.Servers() {
		switch smp, ok := m.LastServer(i); {
		case s.QueueLen() > 0:
			loads[i] = 1
		case ok:
			loads[i] = smp.Util * float64(smp.Freq) / float64(cluster.FreqMax)
		default:
			loads[i] = 1
		}
	}
}

// TagPowerSeries returns, per sampling instant, the dynamic power
// attributed to tag summed over all servers (the Figure 13 power traces).
func (m *Meter) TagPowerSeries(tag string) []TagPoint {
	byAt := map[sim.Time]Watts{}
	var order []sim.Time
	for _, s := range m.samples {
		if _, seen := byAt[s.At]; !seen {
			order = append(order, s.At)
		}
		byAt[s.At] += s.ByTag[tag]
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]TagPoint, len(order))
	for i, at := range order {
		out[i] = TagPoint{At: at, Power: byAt[at]}
	}
	return out
}

// TagPoint is one point of a per-service power series.
type TagPoint struct {
	At    sim.Time
	Power Watts
}

// MeanDynamic returns the average cluster dynamic power over all windows.
func (m *Meter) MeanDynamic() Watts {
	if len(m.totals) == 0 {
		return 0
	}
	var sum Watts
	for _, c := range m.totals {
		sum += c.Dynamic
	}
	return sum / Watts(len(m.totals))
}

// PeakDynamic returns the maximum cluster dynamic power over all windows.
func (m *Meter) PeakDynamic() Watts {
	var peak Watts
	for _, c := range m.totals {
		if c.Dynamic > peak {
			peak = c.Dynamic
		}
	}
	return peak
}

// DynamicRange returns max−min cluster dynamic power across windows — the
// "dynamic power range" whose 25% reduction is the paper's headline.
func (m *Meter) DynamicRange() Watts {
	if len(m.totals) == 0 {
		return 0
	}
	lo, hi := m.totals[0].Dynamic, m.totals[0].Dynamic
	for _, c := range m.totals {
		if c.Dynamic < lo {
			lo = c.Dynamic
		}
		if c.Dynamic > hi {
			hi = c.Dynamic
		}
	}
	return hi - lo
}
