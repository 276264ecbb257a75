package fridge

import (
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/trace"
)

// State is a deep copy of the controller's mutable state: the Algorithm-1
// adjustments, last-tick zone assignment and frequencies, the cached MCF
// map (reused in place every tick, so it must be copied), the indegree
// counters and the live request-completion relays.
type State struct {
	alpha, beta     float64
	loadOverride    map[string]float64
	migrateServices bool
	adjust          map[string]int
	adjustBase      map[string]core.Criticality
	baseLevels      map[string]core.Criticality
	zoneServers     map[Zone][]*cluster.Server
	zoneFreq        map[Zone]cluster.GHz
	levels          map[string]core.Criticality
	lastMCF         map[string]float64
	hasMCF          bool
	zoneDemand      map[Zone]float64
	demandTotal     float64
	ticks           uint64
	promotions      uint64
	demotions       uint64
	counter         *core.CounterState
	relays          []relaySnap
}

// relaySnap is a live relay and the callback it carried at snapshot time.
type relaySnap struct {
	ptr    *relay
	onDone func(*trace.Trace)
}

// Snapshot captures the controller's state.
func (f *Fridge) Snapshot() *State {
	s := &State{
		alpha:           f.Alpha,
		beta:            f.Beta,
		loadOverride:    f.LoadOverride,
		migrateServices: f.MigrateServices,
		adjust:          make(map[string]int, len(f.adjust)),
		adjustBase:      make(map[string]core.Criticality, len(f.adjustBase)),
		baseLevels:      make(map[string]core.Criticality, len(f.baseLevels)),
		zoneServers:     make(map[Zone][]*cluster.Server, len(f.zoneServers)),
		zoneFreq:        make(map[Zone]cluster.GHz, len(f.zoneFreq)),
		levels:          make(map[string]core.Criticality, len(f.levels)),
		lastMCF:         make(map[string]float64, len(f.lastMCF)),
		hasMCF:          f.hasMCF,
		zoneDemand:      make(map[Zone]float64, len(f.zoneDemand)),
		demandTotal:     f.demandTotal,
		ticks:           f.ticks,
		promotions:      f.promotions,
		demotions:       f.demotions,
		counter:         f.counter.Snapshot(),
		relays:          make([]relaySnap, len(f.liveRelays)),
	}
	for i, r := range f.liveRelays {
		s.relays[i] = relaySnap{ptr: r, onDone: r.onDone}
	}
	for k, v := range f.adjust {
		s.adjust[k] = v
	}
	for k, v := range f.adjustBase {
		s.adjustBase[k] = v
	}
	for k, v := range f.baseLevels {
		s.baseLevels[k] = v
	}
	for z, list := range f.zoneServers {
		s.zoneServers[z] = append([]*cluster.Server(nil), list...)
	}
	for z, g := range f.zoneFreq {
		s.zoneFreq[z] = g
	}
	for k, v := range f.levels {
		s.levels[k] = v
	}
	for k, v := range f.lastMCF {
		s.lastMCF[k] = v
	}
	for z, d := range f.zoneDemand {
		s.zoneDemand[z] = d
	}
	return s
}

// Restore rewinds the controller to the snapshot. LoadOverride is restored
// by reference (experiment cells treat it as an input, not state); warm
// sweeps overwrite it per cell after restoring. The relay free pool is
// dropped, as the executor drops its pools: a relay freed after the
// snapshot may be live again once the executor rewinds.
func (f *Fridge) Restore(s *State) {
	f.Alpha, f.Beta = s.alpha, s.beta
	f.LoadOverride = s.loadOverride
	f.MigrateServices = s.migrateServices
	clear(f.adjust)
	for k, v := range s.adjust {
		f.adjust[k] = v
	}
	clear(f.adjustBase)
	for k, v := range s.adjustBase {
		f.adjustBase[k] = v
	}
	f.baseLevels = make(map[string]core.Criticality, len(s.baseLevels))
	for k, v := range s.baseLevels {
		f.baseLevels[k] = v
	}
	f.zoneServers = make(map[Zone][]*cluster.Server, len(s.zoneServers))
	for z, list := range s.zoneServers {
		f.zoneServers[z] = append([]*cluster.Server(nil), list...)
	}
	for z, g := range s.zoneFreq {
		f.zoneFreq[z] = g
	}
	f.levels = make(map[string]core.Criticality, len(s.levels))
	for k, v := range s.levels {
		f.levels[k] = v
	}
	clear(f.lastMCF)
	if f.lastMCF == nil && len(s.lastMCF) > 0 {
		f.lastMCF = make(map[string]float64, len(s.lastMCF))
	}
	for k, v := range s.lastMCF {
		f.lastMCF[k] = v
	}
	f.hasMCF = s.hasMCF
	f.zoneDemand = make(map[Zone]float64, len(s.zoneDemand))
	for z, d := range s.zoneDemand {
		f.zoneDemand[z] = d
	}
	f.demandTotal = s.demandTotal
	f.ticks = s.ticks
	f.promotions = s.promotions
	f.demotions = s.demotions
	f.counter.Restore(s.counter)
	clear(f.freeRelays)
	f.freeRelays = f.freeRelays[:0]
	clear(f.liveRelays)
	f.liveRelays = f.liveRelays[:0]
	for i, rs := range s.relays {
		rs.ptr.onDone, rs.ptr.liveIdx = rs.onDone, i
		f.liveRelays = append(f.liveRelays, rs.ptr)
	}
}
