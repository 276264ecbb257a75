package fridge

import (
	"testing"
	"time"

	"servicefridge/internal/core"
	"servicefridge/internal/obs"
)

// TestAllocateZoneCounts pins the proportional zone-sizing arithmetic of
// Figure 9: largest-remainder allocation with a one-server floor per zone
// with demand. A zone floored *up* to the minimum must not also compete
// in the remainder pass with its original fractional part — that inverts
// the proportional split (the 3.4/1.7/0.9 case below used to come out as
// Cold 3, Warm 1, Hot 2).
func TestAllocateZoneCounts(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		demand map[Zone]float64
		want   map[Zone]int
	}{
		{
			name:   "floored-up zone keeps no remainder",
			n:      6,
			demand: map[Zone]float64{Cold: 3.4, Warm: 1.7, Hot: 0.9},
			want:   map[Zone]int{Cold: 3, Warm: 2, Hot: 1},
		},
		{
			name:   "exact shares",
			n:      6,
			demand: map[Zone]float64{Cold: 3, Warm: 2, Hot: 1},
			want:   map[Zone]int{Cold: 3, Warm: 2, Hot: 1},
		},
		{
			name:   "remainder goes to largest non-floored fraction",
			n:      5,
			demand: map[Zone]float64{Cold: 2.6, Warm: 1.6, Hot: 0.8},
			want:   map[Zone]int{Cold: 3, Warm: 1, Hot: 1},
		},
		{
			name:   "single zone takes every server",
			n:      4,
			demand: map[Zone]float64{Warm: 2.5},
			want:   map[Zone]int{Warm: 4},
		},
		{
			name:   "two zones split proportionally",
			n:      5,
			demand: map[Zone]float64{Cold: 3, Hot: 1},
			want:   map[Zone]int{Cold: 4, Hot: 1},
		},
		{
			name:   "floors over-subscribe: trim from the hot end",
			n:      2,
			demand: map[Zone]float64{Cold: 10, Warm: 0.1, Hot: 0.1},
			want:   map[Zone]int{Cold: 1, Warm: 1, Hot: 0},
		},
		{
			name:   "zero-demand zone gets nothing",
			n:      6,
			demand: map[Zone]float64{Cold: 1, Hot: 0},
			want:   map[Zone]int{Cold: 6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := allocateZoneCounts(tc.n, tc.demand)
			total := 0
			for _, z := range []Zone{Cold, Warm, Hot} {
				if got[z] != tc.want[z] {
					t.Errorf("counts[%v] = %d, want %d (full: %v)", z, got[z], tc.want[z], got)
				}
				total += got[z]
			}
			if total != tc.n {
				t.Errorf("allocated %d servers, want %d", total, tc.n)
			}
		})
	}
}

// TestAllocateZoneCountsIgnoresMapOrder is the regression for a total
// summed in map iteration order: float addition is not associative, and
// the exact shares here (1.5, 2.5, 2) tie on their remainders, so the
// last bit of the total decided whether the spare server went warm or
// cold. Go starts each iteration of a small map at a random slot, so 200
// calls saw each order of the sum; every call must give the answer of the
// fixed [Cold, Warm, Hot] sum.
func TestAllocateZoneCountsIgnoresMapOrder(t *testing.T) {
	demand := map[Zone]float64{Cold: 0.15, Warm: 0.25, Hot: 0.2}
	want := map[Zone]int{Cold: 1, Warm: 3, Hot: 2}
	seen := map[[3]int]int{}
	for i := 0; i < 200; i++ {
		got := allocateZoneCounts(6, demand)
		seen[[3]int{got[Cold], got[Warm], got[Hot]}]++
	}
	if len(seen) != 1 || seen[[3]int{want[Cold], want[Warm], want[Hot]}] != 200 {
		t.Fatalf("200 calls gave [cold warm hot] counts %v, want only %v", seen, want)
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
		f.bump("route", +1, "test", obs.Cause{})
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
