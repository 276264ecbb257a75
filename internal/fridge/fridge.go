// Package fridge implements ServiceFridge (§5): the MCF-driven power
// management coordination framework. It couples the container orchestrator
// with the per-server DVFS knobs through three mechanisms:
//
//  1. Cross-layer scheduling: an MCF Calculator classifies microservices
//     into high/uncertain/low criticality from the live bipartite-graph
//     indegree counters and the offline profiles.
//  2. Differentiated power management: servers are logically partitioned
//     into a cold zone (no power limiting, hosts high-MCF services), a
//     warm zone (buffer, uncertain MCF) and a hot zone (aggressive capping,
//     low MCF). The same capping strategy applies within a zone.
//  3. Dynamic and fast scaling: Algorithm 1 promotes/demotes criticality
//     from warm-zone utilization, and services migrate between zones with
//     the orchestrator's start-new-then-kill-old strategy.
package fridge

import (
	"sort"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/obs"
	"servicefridge/internal/power"
	"servicefridge/internal/prof"
	"servicefridge/internal/schemes"
	"servicefridge/internal/sim"
	"servicefridge/internal/trace"
	"servicefridge/internal/workload"
)

// Zone identifies one of the three logical server groups.
type Zone int

const (
	// Hot zone: aggressive capping, low-criticality services.
	Hot Zone = iota
	// Warm zone: moderate capping, uncertain criticality.
	Warm
	// Cold zone: never capped, high criticality.
	Cold
)

func (z Zone) String() string {
	switch z {
	case Hot:
		return "hot"
	case Warm:
		return "warm"
	case Cold:
		return "cold"
	default:
		return "invalid"
	}
}

// zoneOf maps a criticality level to its zone.
func zoneOf(c core.Criticality) Zone {
	switch c {
	case core.High:
		return Cold
	case core.Uncertain:
		return Warm
	default:
		return Hot
	}
}

// Fridge is the ServiceFridge controller.
type Fridge struct {
	ctx  *schemes.Context
	spec *app.Spec

	calc       *core.Calculator
	classifier *core.Classifier
	counter    *core.Counter

	// Alpha and Beta are Algorithm 1's maximum/minimum warm-zone
	// utilization bounds.
	Alpha, Beta float64
	// LoadOverride, when non-nil, replaces the live region load in the
	// MCF computation — the mis-estimation experiments of Figure 14
	// inject wrong request proportions here.
	LoadOverride map[string]float64
	// MigrateServices controls whether the controller actually moves
	// containers between zones (true in full ServiceFridge; the ablation
	// benchmarks disable it to isolate the zoning benefit).
	MigrateServices bool

	// adjust holds Algorithm-1 promotions (+1) and demotions (-1),
	// keyed by service; adjustBase remembers the classifier level the
	// adjustment was made against so stale adjustments expire.
	adjust     map[string]int
	adjustBase map[string]core.Criticality
	// baseLevels is the classifier's raw output from the last tick —
	// the ground truth bump records into adjustBase.
	baseLevels map[string]core.Criticality

	// zone state from the last tick.
	zoneServers map[Zone][]*cluster.Server
	zoneFreq    map[Zone]cluster.GHz
	levels      map[string]core.Criticality

	// lastMCF caches this tick's FreqMax MCF (the value servicesAt,
	// assignZones and migrate all rank by), computed once per Tick into a
	// reused map. hasMCF is false until the first tick that saw load.
	lastMCF map[string]float64
	hasMCF  bool

	// zoneDemand and demandTotal are this tick's per-zone aggregate MCF and
	// its sum, saved by assignZones so the ZoneReassign/Migration events can
	// carry the sizing inputs as provenance.
	zoneDemand  map[Zone]float64
	demandTotal float64

	ticks      uint64
	promotions uint64
	demotions  uint64

	// liveRelays and freeRelays pool the request-completion relays of
	// WrapLauncher (live set index-tracked and swap-removed).
	liveRelays []*relay
	freeRelays []*relay

	// prof, when non-nil, attributes the control tick's wall time to the
	// tick phase, with the MCF solve/classification and zone assignment
	// broken out as sub-phases. The profiler reads the wall clock only:
	// classification, zoning, and every emitted event are unchanged.
	prof *prof.Profiler
}

// New builds a ServiceFridge over the shared scheme context and the
// application's offline analysis.
func New(ctx *schemes.Context, spec *app.Spec) *Fridge {
	g := core.BuildGraph(spec)
	calc := core.NewCalculator(g)
	f := &Fridge{
		ctx:             ctx,
		spec:            spec,
		calc:            calc,
		classifier:      core.NewClassifier(calc),
		counter:         core.NewCounter(g),
		Alpha:           0.75,
		Beta:            0.25,
		MigrateServices: true,
		adjust:          make(map[string]int),
		adjustBase:      make(map[string]core.Criticality),
		baseLevels:      make(map[string]core.Criticality),
		zoneServers:     make(map[Zone][]*cluster.Server),
		zoneFreq: map[Zone]cluster.GHz{
			Hot: cluster.FreqMax, Warm: cluster.FreqMax, Cold: cluster.FreqMax,
		},
		levels: make(map[string]core.Criticality),
	}
	return f
}

// ServiceFridge constructs through the scheme registry like every other
// policy; its registration also interposes the fridge on the request path
// so the indegree counters see live traffic (Figure 9's scheduling-engine
// insertion). CompareRank 3 slots it between T-first and Capping in the
// Figures 15-16 comparison order.
func init() {
	schemes.Register(schemes.Registration{
		Name: "ServiceFridge",
		New: func(in schemes.BuildInput) schemes.Built {
			f := New(in.Ctx, in.Spec)
			return schemes.Built{Scheme: f, WrapLauncher: f.WrapLauncher}
		},
		CompareRank: 3,
	})
}

// Name implements schemes.Scheme (Table 3 calls it "ServiceFridge").
func (f *Fridge) Name() string { return "ServiceFridge" }

// SetProfiler attaches a phase profiler to the control tick (nil
// detaches). Wired by the engine builder.
func (f *Fridge) SetProfiler(p *prof.Profiler) { f.prof = p }

// Calculator exposes the MCF calculator (for reports).
func (f *Fridge) Calculator() *core.Calculator { return f.calc }

// Classifier exposes the criticality classifier (for tuning).
func (f *Fridge) Classifier() *core.Classifier { return f.classifier }

// Counter exposes the live indegree counters.
func (f *Fridge) Counter() *core.Counter { return f.counter }

// Promotions and Demotions count Algorithm 1 actions.
func (f *Fridge) Promotions() uint64 { return f.promotions }

// Demotions returns the number of Algorithm 1 demotions.
func (f *Fridge) Demotions() uint64 { return f.demotions }

// Levels returns the current criticality per service (after adjustments).
func (f *Fridge) Levels() map[string]core.Criticality {
	out := make(map[string]core.Criticality, len(f.levels))
	for s, l := range f.levels {
		out[s] = l
	}
	return out
}

// ZoneServers returns the servers of a zone from the last tick. The
// manager node is always part of the cold zone.
func (f *Fridge) ZoneServers(z Zone) []*cluster.Server {
	return append([]*cluster.Server(nil), f.zoneServers[z]...)
}

// ZoneFreq returns a zone's current frequency setting.
func (f *Fridge) ZoneFreq(z Zone) cluster.GHz { return f.zoneFreq[z] }

// ZonePowerInto sums each zone's latest per-server meter samples into
// out, indexed by Zone (Hot, Warm, Cold). It reports false before the
// first classified tick; it never allocates, so the telemetry sampler can
// call it every tick.
func (f *Fridge) ZonePowerInto(out *[3]float64) bool {
	if !f.hasMCF {
		return false
	}
	for _, z := range []Zone{Hot, Warm, Cold} {
		var w float64
		for _, s := range f.zoneServers[z] {
			if smp, ok := f.ctx.Meter.LastServer(s.Name()); ok {
				w += float64(smp.Power)
			}
		}
		out[z] = w
	}
	return true
}

// ZoneFreqsInto writes each zone's current frequency setting (GHz) into
// out, indexed by Zone. It reports false before the first classified
// tick and never allocates.
func (f *Fridge) ZoneFreqsInto(out *[3]float64) bool {
	if !f.hasMCF {
		return false
	}
	for _, z := range []Zone{Hot, Warm, Cold} {
		out[z] = float64(f.zoneFreq[z])
	}
	return true
}

// WarmUtilization returns the warm zone's mean measured utilization — the
// live value Algorithm 1 compares against Alpha and Beta. It reports
// false when the warm zone is empty or unsampled.
func (f *Fridge) WarmUtilization() (float64, bool) {
	warm := f.zoneServers[Warm]
	if len(warm) == 0 {
		return 0, false
	}
	var sum float64
	sampled := 0
	for _, s := range warm {
		if smp, ok := f.ctx.Meter.LastServer(s.Name()); ok {
			sum += smp.Util
			sampled++
		}
	}
	if sampled == 0 {
		return 0, false
	}
	return sum / float64(sampled), true
}

// MCFInto writes this tick's cached normalized MCF for each named service
// into out (out[i] for services[i]); unknown services read 0. It reports
// false before the first classified tick and never allocates.
func (f *Fridge) MCFInto(services []string, out []float64) bool {
	if !f.hasMCF || len(out) < len(services) {
		return false
	}
	for i, s := range services {
		out[i] = f.lastMCF[s]
	}
	return true
}

// WrapLauncher interposes the fridge on the request path so the indegree
// counters observe every request arrival and completion — the scheduling
// engine insertion of Figure 9.
func (f *Fridge) WrapLauncher(inner workload.Launcher) workload.Launcher {
	return &countingLauncher{f: f, inner: inner}
}

type countingLauncher struct {
	f     *Fridge
	inner workload.Launcher
}

func (l *countingLauncher) Launch(region string, onDone func(*trace.Trace)) {
	l.f.counter.Observe(region)
	l.inner.Launch(region, l.f.acquireRelay(onDone).fn)
}

// relay carries one in-flight request's completion: it retires the
// request's indegree edges, then hands the trace to the caller's callback.
// Relays are pooled and fn is bound once per relay, so the request path
// allocates nothing in steady state; the live set is snapshotted like the
// executor's request objects, which hold the relays' fn.
type relay struct {
	f       *Fridge
	liveIdx int
	onDone  func(*trace.Trace)
	fn      func(*trace.Trace)
}

func (r *relay) done(tr *trace.Trace) {
	f, onDone := r.f, r.onDone
	f.counter.Complete(tr.Region)
	f.releaseRelay(r)
	if onDone != nil {
		onDone(tr)
	}
}

func (f *Fridge) acquireRelay(onDone func(*trace.Trace)) *relay {
	var r *relay
	if n := len(f.freeRelays); n > 0 {
		r = f.freeRelays[n-1]
		f.freeRelays[n-1] = nil
		f.freeRelays = f.freeRelays[:n-1]
	} else {
		r = &relay{f: f}
		r.fn = r.done
	}
	r.onDone = onDone
	r.liveIdx = len(f.liveRelays)
	f.liveRelays = append(f.liveRelays, r)
	return r
}

func (f *Fridge) releaseRelay(r *relay) {
	n := len(f.liveRelays) - 1
	last := f.liveRelays[n]
	f.liveRelays[r.liveIdx] = last
	last.liveIdx = r.liveIdx
	f.liveRelays[n] = nil
	f.liveRelays = f.liveRelays[:n]
	r.onDone = nil
	f.freeRelays = append(f.freeRelays, r)
}

// load returns the region load driving this tick's MCF computation.
func (f *Fridge) load() map[string]float64 {
	if f.LoadOverride != nil {
		return f.LoadOverride
	}
	return f.counter.RegionLoad()
}

// Tick implements schemes.Scheme: one control interval of the
// ServiceFridge Controller.
func (f *Fridge) Tick() {
	f.prof.Enter(prof.Tick)
	defer f.prof.Exit()
	f.ticks++
	load := f.load()
	if len(load) == 0 {
		// No live traffic: keep everything at full speed (the budget is
		// trivially met at idle).
		f.ctx.Cluster.SetAllFreq(cluster.FreqMax)
		return
	}

	// The FreqMax MCF every placement decision below ranks by, computed
	// once per tick into a reused map.
	f.prof.Enter(prof.MCF)
	f.lastMCF = f.calc.MCFInto(load, cluster.FreqMax, f.lastMCF)
	f.hasMCF = true

	// 1. Classify from MCF, then apply Algorithm 1 adjustments.
	base := f.classifier.Classify(load)
	f.prof.Exit()
	f.baseLevels = base
	f.levels = f.applyAdjust(base)

	// 2. Size and assign zones.
	f.prof.Enter(prof.Zones)
	f.assignZones()
	f.recordZones()
	f.prof.Exit()

	// 3. Migrate services to their zones.
	if f.MigrateServices {
		f.migrate()
	}

	// 4. Algorithm 1: promote/demote from warm-zone utilization, to take
	// effect next tick.
	f.autoScale()

	// 5. Set zone frequencies to fit the budget (cold never capped).
	f.setZoneFrequencies()
	f.recordZonePower()
}

// now returns the controller's simulation clock for event timestamps.
func (f *Fridge) now() sim.Time { return f.ctx.Cluster.Engine().Now() }

// recordZones emits one ZoneReassign snapshot per zone, so the event
// stream always carries the full hot/warm/cold partition of this tick.
func (f *Fridge) recordZones() {
	if f.ctx.Rec == nil {
		return
	}
	at := f.now()
	for _, z := range []Zone{Cold, Warm, Hot} {
		names := make([]string, 0, len(f.zoneServers[z]))
		for _, s := range f.zoneServers[z] {
			names = append(names, s.Name())
		}
		f.ctx.Rec.Emit(at, obs.ZoneReassign{
			Zone: z.String(), Servers: names,
			Cause: obs.Cause{Signal: "mcf-demand", Value: f.zoneDemand[z], Bound: f.demandTotal},
		})
	}
}

// recordZonePower emits each zone's measured draw against the cluster
// budget, from the meter's latest per-server windows.
func (f *Fridge) recordZonePower() {
	if f.ctx.Rec == nil {
		return
	}
	at := f.now()
	budget := float64(f.ctx.Budget.Cap())
	for _, z := range []Zone{Cold, Warm, Hot} {
		var w float64
		for _, s := range f.zoneServers[z] {
			if smp, ok := f.ctx.Meter.LastServer(s.Name()); ok {
				w += float64(smp.Power)
			}
		}
		f.ctx.Rec.Emit(at, obs.PowerSample{Zone: z.String(), Watts: w, Budget: budget})
	}
}

// applyAdjust overlays promotions/demotions on the base classification,
// expiring adjustments whose base level changed.
func (f *Fridge) applyAdjust(base map[string]core.Criticality) map[string]core.Criticality {
	out := make(map[string]core.Criticality, len(base))
	for s, lvl := range base {
		if prev, ok := f.adjustBase[s]; ok && prev != lvl {
			delete(f.adjust, s)
			delete(f.adjustBase, s)
		}
		adj := int(lvl) + f.adjust[s]
		if adj < int(core.Low) {
			adj = int(core.Low)
		}
		if adj > int(core.High) {
			adj = int(core.High)
		}
		out[s] = core.Criticality(adj)
	}
	return out
}

// servicesAt returns the function services at a level, sorted by
// descending MCF (this tick's cached FreqMax values) so heavy services
// spread across zone servers first.
func (f *Fridge) servicesAt(lvl core.Criticality) []string {
	mcf := f.lastMCF
	var out []string
	for s, l := range f.levels {
		if l == lvl {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if mcf[out[i]] != mcf[out[j]] {
			return mcf[out[i]] > mcf[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// assignZones partitions the worker servers across zones proportionally to
// each level's aggregate MCF demand (Figure 9's hot/warm/cold server
// numbers). The manager node always belongs to the cold zone.
func (f *Fridge) assignZones() {
	var workers []*cluster.Server
	var manager *cluster.Server
	for _, s := range f.ctx.Cluster.Servers() {
		if s.Role() == cluster.RoleManager {
			manager = s
		} else {
			workers = append(workers, s)
		}
	}
	n := len(workers)
	mcf := f.lastMCF
	// Accumulate in sorted service order: float sums depend on addend
	// order, and these values are emitted as provenance, so map iteration
	// order must not leak into them.
	services := make([]string, 0, len(f.levels))
	for s := range f.levels {
		services = append(services, s)
	}
	sort.Strings(services)
	demand := map[Zone]float64{}
	for _, s := range services {
		demand[zoneOf(f.levels[s])] += mcf[s]
	}
	var total float64
	for _, z := range []Zone{Cold, Warm, Hot} {
		total += demand[z]
	}
	f.zoneDemand = demand
	f.demandTotal = total

	counts := map[Zone]int{}
	if total == 0 || n == 0 {
		counts[Warm] = n
	} else {
		counts = allocateZoneCounts(n, demand)
	}

	f.zoneServers = map[Zone][]*cluster.Server{}
	idx := 0
	for _, z := range []Zone{Cold, Warm, Hot} {
		for k := 0; k < counts[z] && idx < n; k++ {
			f.zoneServers[z] = append(f.zoneServers[z], workers[idx])
			idx++
		}
	}
	// Any leftover workers (rounding) join the hot zone.
	for ; idx < n; idx++ {
		f.zoneServers[Hot] = append(f.zoneServers[Hot], workers[idx])
	}
	if manager != nil {
		f.zoneServers[Cold] = append(f.zoneServers[Cold], manager)
	}
}

// allocateZoneCounts splits n workers across the zones proportionally to
// their aggregate MCF demand by largest remainder, with a floor of one
// server for any zone with demand.
func allocateZoneCounts(n int, demand map[Zone]float64) map[Zone]int {
	var total float64
	for _, d := range demand {
		total += d
	}
	counts := map[Zone]int{}
	remaining := n
	type frac struct {
		z Zone
		f float64
	}
	var fracs []frac
	for _, z := range []Zone{Cold, Warm, Hot} {
		if demand[z] <= 0 {
			continue
		}
		exact := demand[z] / total * float64(n)
		c := int(exact)
		if c < 1 {
			c = 1
		}
		counts[z] = c
		remaining -= c
		// The remainder is measured against the *allocated* count: a zone
		// floored up to the one-server minimum already holds more than its
		// exact share, so it must not also win the remainder pass.
		fracs = append(fracs, frac{z, exact - float64(c)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return fracs[i].z > fracs[j].z
	})
	for _, fr := range fracs {
		if remaining <= 0 {
			break
		}
		counts[fr.z]++
		remaining--
	}
	// Over-allocation (floors exceeded n): trim from the hot end.
	for _, z := range []Zone{Hot, Warm, Cold} {
		for remaining < 0 && counts[z] > 1 {
			counts[z]--
			remaining++
		}
	}
	for _, z := range []Zone{Hot, Warm} {
		for remaining < 0 && counts[z] > 0 {
			counts[z]--
			remaining++
		}
	}
	if remaining > 0 {
		counts[Warm] += remaining
	}
	return counts
}

// zoneForPlacement returns the servers of z usable for container
// placement, falling back toward warmer zones when z is empty.
func (f *Fridge) zoneForPlacement(z Zone) []*cluster.Server {
	for _, cand := range placementFallback[z] {
		if len(f.zoneServers[cand]) > 0 {
			return f.zoneServers[cand]
		}
	}
	return nil
}

var placementFallback = map[Zone][]Zone{
	Cold: {Cold, Warm, Hot},
	Warm: {Warm, Cold, Hot},
	Hot:  {Hot, Warm, Cold},
}

// migrate moves every function service onto a server of its zone. Within
// a zone, services are packed greedily by descending MCF onto the
// least-loaded server (load = accumulated MCF of services already assigned
// there), so two heavy services never share a node while another idles.
// A service already on an acceptable server stays put to limit churn.
func (f *Fridge) migrate() {
	mcf := f.lastMCF
	assigned := map[string]float64{} // server -> accumulated MCF
	for _, lvl := range []core.Criticality{core.High, core.Uncertain, core.Low} {
		services := f.servicesAt(lvl)
		servers := f.zoneForPlacement(zoneOf(lvl))
		if len(servers) == 0 {
			continue
		}
		inZone := map[string]bool{}
		for _, s := range servers {
			inZone[s.Name()] = true
		}
		for _, svc := range services {
			// Preserve the service's replica count: a scaled-out service
			// keeps k instances, now on the zone's k least-loaded nodes.
			k := len(f.ctx.Orch.NodesOf(svc))
			if k < 1 {
				k = 1
			}
			if k > len(servers) {
				k = len(servers)
			}
			targets := make([]*cluster.Server, 0, k)
			used := map[string]bool{}
			// Sticky placement first: keep hosts already in the zone.
			for _, n := range f.ctx.Orch.NodesOf(svc) {
				if len(targets) == k {
					break
				}
				if inZone[n.Name()] && !used[n.Name()] {
					targets = append(targets, n)
					used[n.Name()] = true
				}
			}
			for len(targets) < k {
				var target *cluster.Server
				for _, s := range servers {
					if used[s.Name()] {
						continue
					}
					if target == nil || assigned[s.Name()] < assigned[target.Name()] {
						target = s
					}
				}
				if target == nil {
					break
				}
				targets = append(targets, target)
				used[target.Name()] = true
			}
			share := mcf[svc] / float64(len(targets))
			for _, n := range targets {
				assigned[n.Name()] += share
			}
			f.recordMigration(svc, zoneOf(lvl), targets)
			f.ctx.Orch.MoveService(svc, targets)
		}
	}
}

// recordMigration diffs a service's current active hosts against its new
// targets and emits one Migration event per changed placement, pairing
// drained nodes with their replacements.
func (f *Fridge) recordMigration(svc string, z Zone, targets []*cluster.Server) {
	if f.ctx.Rec == nil {
		return
	}
	oldSet := map[string]bool{}
	var removed []string
	for _, n := range f.ctx.Orch.NodesOf(svc) {
		oldSet[n.Name()] = true
	}
	newSet := map[string]bool{}
	var added []string
	for _, n := range targets {
		newSet[n.Name()] = true
		if !oldSet[n.Name()] {
			added = append(added, n.Name())
		}
	}
	for n := range oldSet {
		if !newSet[n] {
			removed = append(removed, n)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	at := f.now()
	for i := 0; i < len(added) || i < len(removed); i++ {
		var from, to string
		if i < len(removed) {
			from = removed[i]
		}
		if i < len(added) {
			to = added[i]
		}
		f.ctx.Rec.Emit(at, obs.Migration{
			Service: svc, From: from, To: to, Zone: z.String(),
			Cause: obs.Cause{Signal: "mcf-rank", Value: f.lastMCF[svc], Bound: f.demandTotal},
		})
	}
}

// demoteForPower demotes the lowest-MCF high-criticality service one
// level, releasing cold-zone capacity when the budget cannot be met by
// throttling the hot and warm zones alone. predicted and capW are the
// irreducible draw and the budget it overshoots, recorded as provenance.
func (f *Fridge) demoteForPower(predicted, capW power.Watts) {
	high := f.servicesAt(core.High)
	if len(high) == 0 {
		return
	}
	cause := obs.Cause{Signal: "power-gap", Value: float64(predicted), Bound: float64(capW)}
	f.bump(high[len(high)-1], -1, "power-shortage", cause)
	f.demotions++
}

// autoScale is Algorithm 1: when the warm zone runs hot (mean utilization
// above Alpha), the services on its most-utilized server are promoted;
// when it idles below Beta, the services on its least-utilized server are
// demoted.
func (f *Fridge) autoScale() {
	warm := f.zoneServers[Warm]
	if len(warm) == 0 {
		return
	}
	var sum float64
	utils := make(map[string]float64, len(warm))
	sampled := 0
	for _, s := range warm {
		if smp, ok := f.ctx.Meter.LastServer(s.Name()); ok {
			utils[s.Name()] = smp.Util
			sum += smp.Util
			sampled++
		}
	}
	if sampled == 0 {
		return
	}
	mean := sum / float64(sampled)
	// Promotion hysteresis: only promote when the draw sits comfortably
	// below the cap (90%), so a promotion cannot immediately re-violate
	// the budget and trigger a demote-promote oscillation.
	headroom := true
	if last, ok := f.ctx.Meter.LastCluster(); ok {
		headroom = last.Total < f.ctx.Budget.Cap()*0.9
	}
	switch {
	case mean > f.Alpha && headroom:
		// Promote the criticality of services on the max-utilization node
		// (§5.3: promotion only when power is abundant).
		cause := obs.Cause{Signal: "warm-util", Value: mean, Bound: f.Alpha}
		victim := maxUtilServer(warm, utils)
		for _, svc := range f.ctx.Orch.ServicesOn(victim) {
			if f.isFunction(svc) && f.levels[svc] != core.High {
				f.bump(svc, +1, "warm-util-high", cause)
				f.promotions++
			}
		}
	case mean < f.Beta:
		cause := obs.Cause{Signal: "warm-util", Value: mean, Bound: f.Beta}
		victim := minUtilServer(warm, utils)
		for _, svc := range f.ctx.Orch.ServicesOn(victim) {
			if f.isFunction(svc) && f.levels[svc] != core.Low {
				f.bump(svc, -1, "warm-util-low", cause)
				f.demotions++
			}
		}
	}
}

func (f *Fridge) isFunction(svc string) bool {
	ms := f.spec.Service(svc)
	return ms != nil && ms.Kind == app.KindFunction
}

func (f *Fridge) bump(svc string, delta int, reason string, cause obs.Cause) {
	if _, ok := f.levels[svc]; !ok {
		return
	}
	f.adjust[svc] += delta
	if f.adjust[svc] > 2 {
		f.adjust[svc] = 2
	}
	if f.adjust[svc] < -2 {
		f.adjust[svc] = -2
	}
	// Remember the classifier's base level so the adjustment expires when
	// the classifier moves the service on its own. The base is tracked
	// directly (not reconstructed from the clamped effective level, which
	// records a wrong base once the adjustment saturates).
	if base, ok := f.baseLevels[svc]; ok {
		f.adjustBase[svc] = base
	}
	if f.ctx.Rec != nil {
		// The effective level the adjustment produces on the next tick.
		lvl := int(f.baseLevels[svc]) + f.adjust[svc]
		if lvl < int(core.Low) {
			lvl = int(core.Low)
		}
		if lvl > int(core.High) {
			lvl = int(core.High)
		}
		level := core.Criticality(lvl).String()
		if delta > 0 {
			f.ctx.Rec.Emit(f.now(), obs.Promote{Service: svc, Level: level, Reason: reason, Cause: cause})
		} else {
			f.ctx.Rec.Emit(f.now(), obs.Demote{Service: svc, Level: level, Reason: reason, Cause: cause})
		}
	}
}

func maxUtilServer(servers []*cluster.Server, utils map[string]float64) *cluster.Server {
	best := servers[0]
	for _, s := range servers[1:] {
		if utils[s.Name()] > utils[best.Name()] {
			best = s
		}
	}
	return best
}

func minUtilServer(servers []*cluster.Server, utils map[string]float64) *cluster.Server {
	best := servers[0]
	for _, s := range servers[1:] {
		if utils[s.Name()] < utils[best.Name()] {
			best = s
		}
	}
	return best
}

// setZoneFrequencies fits the cluster under the budget: the cold zone is
// pinned at FreqMax; the hot zone throttles first and deepest, then the
// warm zone; with headroom the warm zone recovers first (§5.3).
func (f *Fridge) setZoneFrequencies() {
	ctx := f.ctx
	loads := fridgeServerLoads(ctx)
	capW := ctx.Budget.Cap()

	warmF := cluster.FreqMax
	hotF := cluster.FreqMax
	predict := func() bool {
		return f.predictTotal(loads, warmF, hotF) <= capW
	}
	for guard := 0; guard < 26 && !predict(); guard++ {
		if hotF > cluster.FreqMin {
			hotF = cluster.StepDown(hotF)
		} else if warmF > cluster.FreqMin {
			warmF = cluster.StepDown(warmF)
		} else {
			break // cold zone is never capped
		}
	}
	f.zoneFreq[Cold] = cluster.FreqMax
	f.zoneFreq[Warm] = warmF
	f.zoneFreq[Hot] = hotF
	// The fit the descent stopped at: every FreqChange this tick carries
	// it as provenance (predicted draw at the chosen frequencies vs cap).
	fit := obs.Cause{
		Signal: "budget-fit",
		Value:  float64(f.predictTotal(loads, warmF, hotF)),
		Bound:  float64(capW),
	}
	// Power shortage even with hot and warm fully throttled: the cold
	// zone is too large for the budget. Demote the least critical
	// high-criticality service so the next tick shrinks the cold zone
	// (§5.3: the controller demotes based on available power resources).
	if !predict() && warmF == cluster.FreqMin && hotF == cluster.FreqMin {
		f.demoteForPower(power.Watts(fit.Value), capW)
	}
	for _, s := range f.zoneServers[Cold] {
		f.setFreqRecorded(s, Cold, cluster.FreqMax, fit)
	}
	for _, s := range f.zoneServers[Warm] {
		f.setFreqRecorded(s, Warm, f.guardCritical(s, warmF), fit)
	}
	for _, s := range f.zoneServers[Hot] {
		f.setFreqRecorded(s, Hot, f.guardCritical(s, hotF), fit)
	}
}

// setFreqRecorded actuates one server's frequency, emitting a FreqChange
// event when the setting actually moves.
func (f *Fridge) setFreqRecorded(s *cluster.Server, z Zone, want cluster.GHz, cause obs.Cause) {
	prev := s.Freq()
	s.SetFreq(want)
	if f.ctx.Rec != nil && s.Freq() != prev {
		f.ctx.Rec.Emit(f.now(), obs.FreqChange{
			Server: s.Name(), Zone: z.String(), GHz: float64(s.Freq()), Cause: cause,
		})
	}
}

// guardCritical keeps a server at FreqMax while it still hosts an active
// high-criticality instance — e.g. mid-migration, when the old container
// keeps serving until its replacement in the cold zone activates. §6.3:
// "ServiceFridge always guarantees the frequency of critical
// microservices at 2.4GHz."
func (f *Fridge) guardCritical(s *cluster.Server, want cluster.GHz) cluster.GHz {
	if want == cluster.FreqMax {
		return want
	}
	for _, svc := range f.ctx.Orch.ServicesOn(s) {
		if f.levels[svc] == core.High && f.isFunction(svc) {
			return cluster.FreqMax
		}
	}
	return want
}

func (f *Fridge) predictTotal(loads map[string]float64, warmF, hotF cluster.GHz) (total power.Watts) {
	m := f.ctx.Meter.Model()
	freqOf := func(s *cluster.Server) cluster.GHz {
		switch f.zoneOfServer(s) {
		case Warm:
			return warmF
		case Hot:
			return hotF
		default:
			return cluster.FreqMax
		}
	}
	for _, s := range f.ctx.Cluster.Servers() {
		fq := freqOf(s)
		util := loads[s.Name()] * float64(cluster.FreqMax) / float64(fq)
		if util > 1 {
			util = 1
		}
		total += m.Power(fq, util)
	}
	return total
}

func (f *Fridge) zoneOfServer(s *cluster.Server) Zone {
	for _, z := range []Zone{Cold, Warm, Hot} {
		for _, zs := range f.zoneServers[z] {
			if zs == s {
				return z
			}
		}
	}
	return Cold
}

func fridgeServerLoads(ctx *schemes.Context) map[string]float64 {
	out := make(map[string]float64, ctx.Cluster.Size())
	for _, s := range ctx.Cluster.Servers() {
		switch smp, ok := ctx.Meter.LastServer(s.Name()); {
		case s.QueueLen() > 0:
			// Backlogged servers are saturated at any P-state.
			out[s.Name()] = 1
		case ok:
			out[s.Name()] = smp.Util * float64(smp.Freq) / float64(cluster.FreqMax)
		default:
			out[s.Name()] = 1
		}
	}
	return out
}
