package fridge

import (
	"slices"

	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/sim"
)

// State is a deep copy of the controller's mutable state: the Algorithm-1
// adjustments, last-tick zone assignment and frequencies, the cached MCF
// (reused in place every tick, so it must be copied), the indegree
// counters and the live request-completion relays.
type State struct {
	alpha, beta     float64
	loadOverride    map[string]float64
	migrateServices bool
	adjust          []int
	adjustBase      []core.Criticality
	baseLevels      []core.Criticality
	zoneServers     [3][]*cluster.Server
	zoneFreq        [3]cluster.GHz
	levels          []core.Criticality
	lastMCF         []float64
	hasMCF          bool
	zoneDemand      [3]float64
	demandTotal     float64
	ticks           uint64
	promotions      uint64
	demotions       uint64
	counter         *core.CounterState
	relays          sim.PoolState[relay]
}

// Snapshot captures the controller's state.
func (f *Fridge) Snapshot() *State {
	s := &State{
		alpha:           f.Alpha,
		beta:            f.Beta,
		loadOverride:    f.LoadOverride,
		migrateServices: f.MigrateServices,
		adjust:          slices.Clone(f.adjust),
		adjustBase:      slices.Clone(f.adjustBase),
		baseLevels:      slices.Clone(f.baseLevels),
		zoneFreq:        f.zoneFreq,
		levels:          slices.Clone(f.levels),
		lastMCF:         slices.Clone(f.lastMCF),
		hasMCF:          f.hasMCF,
		zoneDemand:      f.zoneDemand,
		demandTotal:     f.demandTotal,
		ticks:           f.ticks,
		promotions:      f.promotions,
		demotions:       f.demotions,
		counter:         f.counter.Snapshot(),
		relays:          f.relays.Snapshot(),
	}
	for z, list := range f.zoneServers {
		s.zoneServers[z] = slices.Clone(list)
	}
	return s
}

// Restore rewinds the controller to the snapshot. LoadOverride is restored
// by reference (experiment cells treat it as an input, not state); warm
// sweeps overwrite it per cell after restoring.
func (f *Fridge) Restore(s *State) {
	f.Alpha, f.Beta = s.alpha, s.beta
	f.LoadOverride = s.loadOverride
	f.MigrateServices = s.migrateServices
	copy(f.adjust, s.adjust)
	copy(f.adjustBase, s.adjustBase)
	copy(f.baseLevels, s.baseLevels)
	for z, list := range s.zoneServers {
		f.zoneServers[z] = append(f.zoneServers[z][:0], list...)
	}
	f.zoneFreq = s.zoneFreq
	copy(f.levels, s.levels)
	copy(f.lastMCF, s.lastMCF)
	f.hasMCF = s.hasMCF
	f.zoneDemand = s.zoneDemand
	f.demandTotal = s.demandTotal
	f.ticks = s.ticks
	f.promotions = s.promotions
	f.demotions = s.demotions
	f.counter.Restore(s.counter)
	f.relays.Restore(s.relays)
}
