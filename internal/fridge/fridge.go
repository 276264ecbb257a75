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
	"slices"
	"strings"

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
//
// Per-service state lives in slices indexed by spec service ID and
// per-zone state in arrays indexed by Zone, so a control tick allocates
// nothing but the events it emits.
type Fridge struct {
	ctx  *schemes.Context
	spec *app.Spec

	graph      *core.Graph
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

	// adjust holds Algorithm-1 promotions (+1) and demotions (-1) by
	// service ID; adjustBase remembers the classifier level each
	// adjustment was made against (noBase when none is held) so stale
	// adjustments expire.
	adjust     []int
	adjustBase []core.Criticality
	// baseLevels is the classifier's raw output from the last tick — the
	// ground truth bump records into adjustBase.
	baseLevels []core.Criticality

	// zone state from the last tick. levels is the criticality after
	// adjustments; services outside the graph read Low. Both level
	// slices are meaningful once hasMCF is set.
	zoneServers [3][]*cluster.Server
	zoneFreq    [3]cluster.GHz
	levels      []core.Criticality

	// lastMCF caches this tick's FreqMax MCF (the value servicesAt,
	// assignZones and migrate all rank by), computed once per Tick.
	// hasMCF is false until the first tick that saw load.
	lastMCF []float64
	hasMCF  bool

	// zoneDemand and demandTotal are this tick's per-zone aggregate MCF and
	// its sum, saved by assignZones so the ZoneReassign/Migration events can
	// carry the sizing inputs as provenance.
	zoneDemand  [3]float64
	demandTotal float64

	ticks      uint64
	promotions uint64
	demotions  uint64

	// relays pools the request-completion relays of WrapLauncher.
	relays sim.Pool[relay]

	// Orders fixed by the spec, computed once in New: graph services in
	// name order (byName) with each one's position there (nameRank) and
	// membership (inGraph), by service ID; function services in name
	// order (funcByName).
	byName     []int
	nameRank   []int
	inGraph    []bool
	funcByName []int

	// Scratch reused from tick to tick: the region load, servicesAt's
	// result, the worker list, one service's nodes and targets,
	// per-server state indexed by cluster.Server.Index, recordZones'
	// member indices and recordMigration's host lists.
	load           []float64
	services       []int
	workers        []*cluster.Server
	nodes, targets []*cluster.Server
	assigned       []float64
	inZone, used   []bool
	utils, loads   []float64
	serverZone     []Zone
	members        []int32
	added, removed []*cluster.Server

	// prof, when non-nil, attributes the control tick's wall time to the
	// tick phase, with the MCF solve/classification and zone assignment
	// broken out as sub-phases. The profiler reads the wall clock only:
	// classification, zoning, and every emitted event are unchanged.
	prof *prof.Profiler
}

// noBase marks an adjustBase entry with no adjustment recorded against it.
const noBase core.Criticality = -1

// New builds a ServiceFridge over the shared scheme context and the
// application's offline analysis.
func New(ctx *schemes.Context, spec *app.Spec) *Fridge {
	g := core.BuildGraph(spec)
	calc := core.NewCalculator(g)
	n := spec.NumServices()
	f := &Fridge{
		ctx:             ctx,
		spec:            spec,
		graph:           g,
		calc:            calc,
		classifier:      core.NewClassifier(calc),
		counter:         core.NewCounter(g),
		Alpha:           0.75,
		Beta:            0.25,
		MigrateServices: true,
		adjust:          make([]int, n),
		adjustBase:      make([]core.Criticality, n),
		baseLevels:      make([]core.Criticality, n),
		zoneFreq:        [3]cluster.GHz{cluster.FreqMax, cluster.FreqMax, cluster.FreqMax},
		levels:          make([]core.Criticality, n),
		lastMCF:         make([]float64, n),
		nameRank:        make([]int, n),
		inGraph:         make([]bool, n),
		load:            make([]float64, g.NumRegions()),
	}
	for id := range f.adjustBase {
		f.adjustBase[id] = noBase
	}
	f.relays.New = func(r *relay) {
		r.f = f
		r.fn = r.done
	}
	byName := func(a, b int) int {
		return strings.Compare(spec.ServiceByID(a).Name, spec.ServiceByID(b).Name)
	}
	f.byName = append([]int(nil), g.ServiceIDs()...)
	slices.SortFunc(f.byName, byName)
	for rank, id := range f.byName {
		f.nameRank[id] = rank
		f.inGraph[id] = true
	}
	for _, name := range spec.FunctionServices() {
		f.funcByName = append(f.funcByName, spec.Service(name).ID())
	}
	slices.SortFunc(f.funcByName, byName)
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

// Levels returns the current criticality per service (after adjustments):
// every graph service once the controller has classified, none before.
func (f *Fridge) Levels() map[string]core.Criticality {
	out := make(map[string]core.Criticality, len(f.byName))
	if !f.hasMCF {
		return out
	}
	for _, id := range f.byName {
		out[f.spec.ServiceByID(id).Name] = f.levels[id]
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
	for z, servers := range f.zoneServers {
		var w float64
		for _, s := range servers {
			if smp, ok := f.ctx.Meter.LastServer(s.Index()); ok {
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
	for z, g := range f.zoneFreq {
		out[z] = float64(g)
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
		if smp, ok := f.ctx.Meter.LastServer(s.Index()); ok {
			sum += smp.Util
			sampled++
		}
	}
	if sampled == 0 {
		return 0, false
	}
	return sum / float64(sampled), true
}

// MCFInto writes this tick's cached normalized MCF into out, indexed by
// service ID; services outside the graph read 0. It reports false before
// the first classified tick and never allocates.
func (f *Fridge) MCFInto(out []float64) bool {
	if !f.hasMCF {
		return false
	}
	copy(out, f.lastMCF)
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
	r := l.f.relays.Get()
	r.onDone = onDone
	l.inner.Launch(region, r.fn)
}

// relay carries one in-flight request's completion: it retires the
// request's indegree edges, then hands the trace to the caller's callback.
// Relays are pooled and fn is bound once per relay, so the request path
// allocates nothing in steady state; the live set is snapshotted like the
// executor's request objects, which hold the relays' fn.
type relay struct {
	f      *Fridge
	onDone func(*trace.Trace)
	fn     func(*trace.Trace)
}

func (r *relay) done(tr *trace.Trace) {
	f, onDone := r.f, r.onDone
	f.counter.Complete(tr.Region)
	f.relays.Put(r)
	if onDone != nil {
		onDone(tr)
	}
}

// loadInto writes the region load driving this tick's MCF computation into
// f.load and reports whether there is any: LoadOverride when set, else the
// live estimate of the indegree counters.
func (f *Fridge) loadInto() bool {
	if f.LoadOverride != nil {
		f.graph.LoadVec(f.LoadOverride, f.load)
		return len(f.LoadOverride) > 0
	}
	return f.counter.RegionLoadInto(f.load)
}

// Tick implements schemes.Scheme: one control interval of the
// ServiceFridge Controller.
func (f *Fridge) Tick() {
	f.prof.Enter(prof.Tick)
	defer f.prof.Exit()
	f.ticks++
	if !f.loadInto() {
		// No live traffic: keep everything at full speed (the budget is
		// trivially met at idle).
		f.ctx.Cluster.SetAllFreq(cluster.FreqMax)
		return
	}
	f.sizeServerScratch()

	// The FreqMax MCF every placement decision below ranks by, computed
	// once per tick.
	f.prof.Enter(prof.MCF)
	f.calc.MCFVec(f.load, cluster.FreqMax, f.lastMCF)
	f.hasMCF = true

	// 1. Classify from MCF, then apply Algorithm 1 adjustments.
	f.classifier.ClassifyVec(f.load, f.baseLevels)
	f.prof.Exit()
	f.applyAdjust()

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

// sizeServerScratch sizes the per-server scratch to the cluster, once.
func (f *Fridge) sizeServerScratch() {
	n := f.ctx.Cluster.Size()
	if len(f.assigned) == n {
		return
	}
	f.assigned = make([]float64, n)
	f.inZone = make([]bool, n)
	f.used = make([]bool, n)
	f.utils = make([]float64, n)
	f.loads = make([]float64, n)
	f.serverZone = make([]Zone, n)
}

// name returns the name of the service with spec ID id.
func (f *Fridge) name(id int) string { return f.spec.ServiceByID(id).Name }

// now returns the controller's simulation clock for event timestamps.
func (f *Fridge) now() sim.Time { return f.ctx.Cluster.Engine().Now() }

// recordZones emits one ZoneReassign snapshot per zone, so the event
// stream always carries the full hot/warm/cold partition of this tick.
func (f *Fridge) recordZones() {
	if f.ctx.Rec == nil {
		return
	}
	at := f.now()
	for _, z := range [...]Zone{Cold, Warm, Hot} {
		members := f.members[:0]
		for _, s := range f.zoneServers[z] {
			members = append(members, int32(s.Index()))
		}
		f.members = members
		f.ctx.Rec.EmitZone(at, obs.Zone(z), members,
			obs.Cause{Signal: obs.MCFDemand, Value: f.zoneDemand[z], Bound: f.demandTotal})
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
	for _, z := range [...]Zone{Cold, Warm, Hot} {
		var w float64
		for _, s := range f.zoneServers[z] {
			if smp, ok := f.ctx.Meter.LastServer(s.Index()); ok {
				w += float64(smp.Power)
			}
		}
		f.ctx.Rec.Emit(at, obs.Record{Kind: obs.PowerSample, Zone: obs.Zone(z), Value: w, Bound: budget})
	}
}

// applyAdjust overlays promotions/demotions on the base classification,
// expiring adjustments whose base level changed.
func (f *Fridge) applyAdjust() {
	for _, id := range f.byName {
		lvl := f.baseLevels[id]
		if prev := f.adjustBase[id]; prev != noBase && prev != lvl {
			f.adjust[id] = 0
			f.adjustBase[id] = noBase
		}
		f.levels[id] = clampLevel(int(lvl) + f.adjust[id])
	}
}

// clampLevel bounds an adjusted level to [Low, High].
func clampLevel(lvl int) core.Criticality {
	return core.Criticality(max(int(core.Low), min(int(core.High), lvl)))
}

// servicesAt returns the function services at a level, sorted by
// descending MCF (this tick's cached FreqMax values), then by name, so
// heavy services spread across zone servers first. The result is scratch,
// valid until the next call.
func (f *Fridge) servicesAt(lvl core.Criticality) []int {
	out := f.services[:0]
	for _, id := range f.byName {
		if f.levels[id] == lvl {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, f.byMCF)
	f.services = out
	return out
}

// byMCF orders service IDs by descending lastMCF, then ascending name.
func (f *Fridge) byMCF(a, b int) int {
	if ma, mb := f.lastMCF[a], f.lastMCF[b]; ma != mb {
		if ma > mb {
			return -1
		}
		return 1
	}
	return f.nameRank[a] - f.nameRank[b]
}

// assignZones partitions the worker servers across zones proportionally to
// each level's aggregate MCF demand (Figure 9's hot/warm/cold server
// numbers). The manager node always belongs to the cold zone.
func (f *Fridge) assignZones() {
	workers := f.workers[:0]
	var manager *cluster.Server
	for _, s := range f.ctx.Cluster.Servers() {
		if s.Role() == cluster.RoleManager {
			manager = s
		} else {
			workers = append(workers, s)
		}
	}
	f.workers = workers
	n := len(workers)
	// Accumulate in service name order: float sums depend on addend
	// order, and these values are emitted as provenance.
	var demand [3]float64
	for _, id := range f.byName {
		demand[zoneOf(f.levels[id])] += f.lastMCF[id]
	}
	var total float64
	for _, z := range [...]Zone{Cold, Warm, Hot} {
		total += demand[z]
	}
	f.zoneDemand = demand
	f.demandTotal = total

	var counts [3]int
	if total == 0 || n == 0 {
		counts[Warm] = n
	} else {
		counts = allocateZoneCounts(n, demand)
	}

	for z := range f.zoneServers {
		f.zoneServers[z] = f.zoneServers[z][:0]
	}
	idx := 0
	for _, z := range [...]Zone{Cold, Warm, Hot} {
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
// server for any zone with demand. Both arrays are indexed by Zone. The
// total is summed in the fixed [Cold, Warm, Hot] order: float addition is
// not associative, so another order could tip an exact share across an
// integer boundary.
func allocateZoneCounts(n int, demand [3]float64) [3]int {
	var total float64
	for _, z := range [...]Zone{Cold, Warm, Hot} {
		total += demand[z]
	}
	var counts [3]int
	remaining := n
	type frac struct {
		z Zone
		f float64
	}
	var fracBuf [3]frac
	fracs := fracBuf[:0]
	for _, z := range [...]Zone{Cold, Warm, Hot} {
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
	// Largest remainder first, the colder zone on ties.
	slices.SortFunc(fracs, func(a, b frac) int {
		if a.f != b.f {
			if a.f > b.f {
				return -1
			}
			return 1
		}
		return int(b.z) - int(a.z)
	})
	for _, fr := range fracs {
		if remaining <= 0 {
			break
		}
		counts[fr.z]++
		remaining--
	}
	// Over-allocation (floors exceeded n): trim from the hot end.
	for _, z := range [...]Zone{Hot, Warm, Cold} {
		for remaining < 0 && counts[z] > 1 {
			counts[z]--
			remaining++
		}
	}
	for _, z := range [...]Zone{Hot, Warm} {
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

// placementFallback lists, for each zone, the zones whose servers take its
// services, in preference order.
var placementFallback = [3][3]Zone{
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
	assigned := f.assigned // by server index: accumulated MCF
	clear(assigned)
	for _, lvl := range [...]core.Criticality{core.High, core.Uncertain, core.Low} {
		services := f.servicesAt(lvl)
		servers := f.zoneForPlacement(zoneOf(lvl))
		if len(servers) == 0 {
			continue
		}
		clear(f.inZone)
		for _, s := range servers {
			f.inZone[s.Index()] = true
		}
		for _, id := range services {
			svc := f.name(id)
			// Preserve the service's replica count: a scaled-out service
			// keeps k instances, now on the zone's k least-loaded nodes.
			f.nodes = f.ctx.Orch.AppendNodesOf(f.nodes[:0], svc)
			k := min(max(len(f.nodes), 1), len(servers))
			targets := f.targets[:0]
			clear(f.used)
			// Sticky placement first: keep hosts already in the zone.
			for _, n := range f.nodes {
				if len(targets) == k {
					break
				}
				if i := n.Index(); f.inZone[i] && !f.used[i] {
					targets = append(targets, n)
					f.used[i] = true
				}
			}
			for len(targets) < k {
				var target *cluster.Server
				for _, s := range servers {
					if f.used[s.Index()] {
						continue
					}
					if target == nil || assigned[s.Index()] < assigned[target.Index()] {
						target = s
					}
				}
				if target == nil {
					break
				}
				targets = append(targets, target)
				f.used[target.Index()] = true
			}
			f.targets = targets
			share := f.lastMCF[id] / float64(len(targets))
			for _, n := range targets {
				assigned[n.Index()] += share
			}
			f.recordMigration(id, zoneOf(lvl), targets)
			f.ctx.Orch.MoveService(svc, targets)
		}
	}
}

// recordMigration diffs a service's current active hosts (f.nodes, as
// migrate fetched them) against its new targets and emits one migration
// record per changed placement, pairing drained nodes with their
// replacements in name order.
func (f *Fridge) recordMigration(id int, z Zone, targets []*cluster.Server) {
	if f.ctx.Rec == nil {
		return
	}
	added, removed := f.added[:0], f.removed[:0]
	for _, n := range targets {
		if !slices.Contains(f.nodes, n) {
			added = append(added, n)
		}
	}
	for _, n := range f.nodes {
		if !slices.Contains(targets, n) {
			removed = append(removed, n)
		}
	}
	byName := func(a, b *cluster.Server) int { return strings.Compare(a.Name(), b.Name()) }
	slices.SortFunc(added, byName)
	slices.SortFunc(removed, byName)
	f.added, f.removed = added, removed
	at := f.now()
	for i := 0; i < len(added) || i < len(removed); i++ {
		from, to := int32(obs.None), int32(obs.None)
		if i < len(removed) {
			from = int32(removed[i].Index())
		}
		if i < len(added) {
			to = int32(added[i].Index())
		}
		f.ctx.Rec.Emit(at, obs.Record{
			Kind: obs.Migration, Svc: int32(id), From: from, To: to, Zone: obs.Zone(z),
			Cause: obs.Cause{Signal: obs.MCFRank, Value: f.lastMCF[id], Bound: f.demandTotal},
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
	cause := obs.Cause{Signal: obs.PowerGap, Value: float64(predicted), Bound: float64(capW)}
	f.bump(high[len(high)-1], -1, obs.PowerShortage, cause)
	f.demotions++
}

// autoScale is Algorithm 1: when the warm zone runs hot (mean utilization
// above Alpha), the function services on its most-utilized server are
// promoted; when it idles below Beta, those on its least-utilized server
// are demoted. Services are visited in name order.
func (f *Fridge) autoScale() {
	warm := f.zoneServers[Warm]
	if len(warm) == 0 {
		return
	}
	var sum float64
	sampled := 0
	for _, s := range warm {
		f.utils[s.Index()] = 0
		if smp, ok := f.ctx.Meter.LastServer(s.Index()); ok {
			f.utils[s.Index()] = smp.Util
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
		cause := obs.Cause{Signal: obs.WarmUtil, Value: mean, Bound: f.Alpha}
		victim := maxUtilServer(warm, f.utils)
		for _, id := range f.funcByName {
			if f.ctx.Orch.ActiveOn(f.name(id), victim) && f.levels[id] != core.High {
				f.bump(id, +1, obs.WarmUtilHigh, cause)
				f.promotions++
			}
		}
	case mean < f.Beta:
		cause := obs.Cause{Signal: obs.WarmUtil, Value: mean, Bound: f.Beta}
		victim := minUtilServer(warm, f.utils)
		for _, id := range f.funcByName {
			if f.ctx.Orch.ActiveOn(f.name(id), victim) && f.levels[id] != core.Low {
				f.bump(id, -1, obs.WarmUtilLow, cause)
				f.demotions++
			}
		}
	}
}

// bump records an Algorithm 1 adjustment of delta for the service with
// spec ID id. Services the controller has not classified are ignored.
func (f *Fridge) bump(id, delta int, reason obs.Reason, cause obs.Cause) {
	if !f.hasMCF || !f.inGraph[id] {
		return
	}
	f.adjust[id] = max(-2, min(2, f.adjust[id]+delta))
	// Remember the classifier's base level so the adjustment expires when
	// the classifier moves the service on its own. The base is tracked
	// directly (not reconstructed from the clamped effective level, which
	// records a wrong base once the adjustment saturates).
	f.adjustBase[id] = f.baseLevels[id]
	if f.ctx.Rec != nil {
		// The effective level the adjustment produces on the next tick.
		rec := obs.Record{Kind: obs.Demote, Svc: int32(id), Reason: reason, Cause: cause,
			Level: obs.Level(clampLevel(int(f.baseLevels[id]) + f.adjust[id]))}
		if delta > 0 {
			rec.Kind = obs.Promote
		}
		f.ctx.Rec.Emit(f.now(), rec)
	}
}

func maxUtilServer(servers []*cluster.Server, utils []float64) *cluster.Server {
	best := servers[0]
	for _, s := range servers[1:] {
		if utils[s.Index()] > utils[best.Index()] {
			best = s
		}
	}
	return best
}

func minUtilServer(servers []*cluster.Server, utils []float64) *cluster.Server {
	best := servers[0]
	for _, s := range servers[1:] {
		if utils[s.Index()] < utils[best.Index()] {
			best = s
		}
	}
	return best
}

// setZoneFrequencies fits the cluster under the budget: the cold zone is
// pinned at FreqMax; the hot zone throttles first and deepest, then the
// warm zone; with headroom the warm zone recovers first (§5.3).
func (f *Fridge) setZoneFrequencies() {
	f.serverLoads()
	capW := f.ctx.Budget.Cap()

	warmF := cluster.FreqMax
	hotF := cluster.FreqMax
	predict := func() bool {
		return f.predictTotal(warmF, hotF) <= capW
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
	// The fit the descent stopped at: every freq_change this tick carries
	// it as provenance (predicted draw at the chosen frequencies vs cap).
	fit := obs.Cause{
		Signal: obs.BudgetFit,
		Value:  float64(f.predictTotal(warmF, hotF)),
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

// setFreqRecorded actuates one server's frequency, emitting a
// freq_change record when the setting actually moves.
func (f *Fridge) setFreqRecorded(s *cluster.Server, z Zone, want cluster.GHz, cause obs.Cause) {
	prev := s.Freq()
	s.SetFreq(want)
	if f.ctx.Rec != nil && s.Freq() != prev {
		f.ctx.Rec.Emit(f.now(), obs.Record{
			Kind: obs.FreqChange, Server: int32(s.Index()), Zone: obs.Zone(z), Value: float64(s.Freq()), Cause: cause,
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
	for _, id := range f.byName {
		if f.levels[id] == core.High && f.ctx.Orch.ActiveOn(f.name(id), s) {
			return cluster.FreqMax
		}
	}
	return want
}

// predictTotal is the cluster draw the meter's latest loads predict with
// the warm and hot zones at warmF and hotF, summed in server order.
func (f *Fridge) predictTotal(warmF, hotF cluster.GHz) (total power.Watts) {
	m := f.ctx.Meter.Model()
	for i, z := range f.serverZone {
		fq := cluster.FreqMax
		switch z {
		case Warm:
			fq = warmF
		case Hot:
			fq = hotF
		}
		total += m.Predict(f.loads[i], fq)
	}
	return total
}

// serverLoads fills each server's zone (servers in no zone count as cold)
// and reads its load from the meter, by server index.
func (f *Fridge) serverLoads() {
	for i := range f.serverZone {
		f.serverZone[i] = Cold
	}
	for _, z := range [...]Zone{Hot, Warm, Cold} {
		for _, s := range f.zoneServers[z] {
			f.serverZone[s.Index()] = z
		}
	}
	f.ctx.Meter.LoadsInto(f.loads)
}
