package fridge

import (
	"sort"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/core"
	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// TestAllocateZoneCounts pins the proportional zone-sizing arithmetic of
// Figure 9: largest-remainder allocation with a one-server floor per zone
// with demand. A zone floored *up* to the minimum must not also compete
// in the remainder pass with its original fractional part — that inverts
// the proportional split (the 3.4/1.7/0.9 case below used to come out as
// Cold 3, Warm 1, Hot 2). Arrays are indexed by Zone: [Hot, Warm, Cold].
func TestAllocateZoneCounts(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		demand [3]float64
		want   [3]int
	}{
		{
			name:   "floored-up zone keeps no remainder",
			n:      6,
			demand: [3]float64{Cold: 3.4, Warm: 1.7, Hot: 0.9},
			want:   [3]int{Cold: 3, Warm: 2, Hot: 1},
		},
		{
			name:   "exact shares",
			n:      6,
			demand: [3]float64{Cold: 3, Warm: 2, Hot: 1},
			want:   [3]int{Cold: 3, Warm: 2, Hot: 1},
		},
		{
			name:   "remainder goes to largest non-floored fraction",
			n:      5,
			demand: [3]float64{Cold: 2.6, Warm: 1.6, Hot: 0.8},
			want:   [3]int{Cold: 3, Warm: 1, Hot: 1},
		},
		{
			name:   "single zone takes every server",
			n:      4,
			demand: [3]float64{Warm: 2.5},
			want:   [3]int{Warm: 4},
		},
		{
			name:   "two zones split proportionally",
			n:      5,
			demand: [3]float64{Cold: 3, Hot: 1},
			want:   [3]int{Cold: 4, Hot: 1},
		},
		{
			name:   "floors over-subscribe: trim from the hot end",
			n:      2,
			demand: [3]float64{Cold: 10, Warm: 0.1, Hot: 0.1},
			want:   [3]int{Cold: 1, Warm: 1, Hot: 0},
		},
		{
			name:   "zero-demand zone gets nothing",
			n:      6,
			demand: [3]float64{Cold: 1, Hot: 0},
			want:   [3]int{Cold: 6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := allocateZoneCounts(tc.n, tc.demand)
			if got != tc.want {
				t.Errorf("counts = %v, want %v ([hot warm cold])", got, tc.want)
			}
			if total := got[Hot] + got[Warm] + got[Cold]; total != tc.n {
				t.Errorf("allocated %d servers, want %d", total, tc.n)
			}
		})
	}
}

// TestAllocateZoneCountsIgnoresMapOrder is the regression for a total
// summed in map iteration order: float addition is not associative, and
// the exact shares here (1.5, 2.5, 2) tie on their remainders, so the
// last bit of the total decided whether the spare server went warm or
// cold. The total is summed in the fixed [Cold, Warm, Hot] order, which
// gives warm the spare server.
func TestAllocateZoneCountsIgnoresMapOrder(t *testing.T) {
	demand := [3]float64{Cold: 0.15, Warm: 0.25, Hot: 0.2}
	want := [3]int{Cold: 1, Warm: 3, Hot: 2}
	if got := allocateZoneCounts(6, demand); got != want {
		t.Fatalf("counts = %v, want %v ([hot warm cold])", got, want)
	}
}

// refAllocateZoneCounts is the map-keyed allocateZoneCounts the array
// form replaced, kept as its reference.
func refAllocateZoneCounts(n int, demand map[Zone]float64) map[Zone]int {
	var total float64
	for _, z := range []Zone{Cold, Warm, Hot} {
		total += demand[z]
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

// TestAllocateZoneCountsMatchesMapReference checks the array form against
// the map form for n = 1..12 workers and random demands, with zones that
// have none and demands that tie.
func TestAllocateZoneCountsMatchesMapReference(t *testing.T) {
	r := sim.NewRNG(3)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 500; trial++ {
			var demand [3]float64
			m := map[Zone]float64{}
			for z := range demand {
				switch r.Intn(4) {
				case 0: // no demand
				case 1:
					demand[z] = float64(1 + r.Intn(3)) // ties are likely
				default:
					demand[z] = r.Float64() * 3
				}
				if demand[z] != 0 {
					m[Zone(z)] = demand[z]
				}
			}
			if demand == [3]float64{} {
				continue // the controller never sizes zones without demand
			}
			got := allocateZoneCounts(n, demand)
			want := refAllocateZoneCounts(n, m)
			for z := range got {
				if got[z] != want[Zone(z)] {
					t.Fatalf("n=%d demand %v: counts %v, reference %v", n, demand, got, want)
				}
			}
		}
	}
}

// TestRepeatedPromotionPastClampSticks is the Algorithm 1 bookkeeping
// regression: promoting a service once per tick until the ±2 adjustment
// clamp saturates must not corrupt the recorded base level. The old code
// reconstructed the base from the already-clamped current level, recorded
// a wrong adjustBase, and the next tick expired the promotion — dropping
// the service from High straight back to Low under unchanged traffic.
func TestRepeatedPromotionPastClampSticks(t *testing.T) {
	eng, f, _ := harness(t, 1.0)
	f.Beta = 0 // isolate manual bumps from the warm-zone autoscaler
	feed(f, 30, 0)
	eng.RunFor(time.Second)
	f.Tick()
	if got := f.Levels()["route"]; got != core.Low {
		t.Fatalf("route starts at %v under pure-A load, want low", got)
	}
	// One promotion per control interval, continuing past the clamp.
	for i := 0; i < 3; i++ {
		f.bump(f.spec.Service("route").ID(), +1, obs.WarmUtilHigh, obs.Cause{})
		feed(f, 30, 0)
		f.Tick()
	}
	if got := f.Levels()["route"]; got != core.High {
		t.Fatalf("route = %v after repeated promotion, want high", got)
	}
	// The promotion must survive further ticks while the classifier base
	// is unchanged (still low under the same pure-A load).
	for i := 0; i < 2; i++ {
		feed(f, 30, 0)
		f.Tick()
		if got := f.Levels()["route"]; got != core.High {
			t.Fatalf("route = %v on steady-load tick %d, want high (promotion silently expired)", got, i+1)
		}
	}
}

// TestServicesAtOrdersByMCFThenName: services of a level come out by
// descending MCF, ties by name. Under pure-B load the A-only services all
// read MCF 0, and their name order differs from their ID order.
func TestServicesAtOrdersByMCFThenName(t *testing.T) {
	eng, f, _ := harness(t, 1.0)
	feed(f, 0, 30)
	eng.RunFor(time.Second)
	f.Tick()
	mcf := func(name string) float64 { return f.lastMCF[f.spec.Service(name).ID()] }
	for _, lvl := range []core.Criticality{core.Low, core.Uncertain, core.High} {
		var want []string
		for s, l := range f.Levels() {
			if l == lvl {
				want = append(want, s)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if mi, mj := mcf(want[i]), mcf(want[j]); mi != mj {
				return mi > mj
			}
			return want[i] < want[j]
		})
		var got []string
		for _, id := range f.servicesAt(lvl) {
			got = append(got, f.name(id))
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("servicesAt(%v) = %v, want %v", lvl, got, want)
		}
	}
}

// TestZoneDemandSummedInNameOrder: each zone's demand, which ZoneReassign
// events carry as provenance, is the sum of its services' MCF in service
// name order, bit for bit, over many override loads.
func TestZoneDemandSummedInNameOrder(t *testing.T) {
	eng, f, _ := harness(t, 0.8)
	feed(f, 30, 20)
	eng.RunFor(time.Second)
	r := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		f.LoadOverride = map[string]float64{"A": r.Float64() * 40, "B": r.Float64() * 40}
		f.Tick()
		levels := f.Levels()
		names := make([]string, 0, len(levels))
		for s := range levels {
			names = append(names, s)
		}
		sort.Strings(names)
		var want [3]float64
		for _, s := range names {
			want[zoneOf(levels[s])] += f.lastMCF[f.spec.Service(s).ID()]
		}
		if f.zoneDemand != want {
			t.Fatalf("load %v: zone demand %v, name-order sums %v", f.LoadOverride, f.zoneDemand, want)
		}
	}
}
