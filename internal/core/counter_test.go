package core

import (
	"math"
	"testing"
	"testing/quick"

	"servicefridge/internal/app"
	"servicefridge/internal/sim"
)

func TestCounterObserveComplete(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Observe("A")
	c.Observe("A")
	c.Observe("B")
	// ticketinfo is in both regions: 3 edges. seat only in A: 2.
	if c.Pending("ticketinfo") != 3 {
		t.Fatalf("pending[ticketinfo] = %v, want 3", c.Pending("ticketinfo"))
	}
	if c.Pending("seat") != 2 {
		t.Fatalf("pending[seat] = %v, want 2", c.Pending("seat"))
	}
	// Total: 2 A-requests x 8 edges + 1 B-request x 4 edges = 20.
	if c.Total() != 20 {
		t.Fatalf("total = %v, want 20", c.Total())
	}
	c.Complete("A")
	if c.Pending("ticketinfo") != 2 || c.Total() != 12 {
		t.Fatalf("after complete: ticketinfo=%v total=%v", c.Pending("ticketinfo"), c.Total())
	}
}

func TestCounterSharesSumToOne(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Observe("A")
	c.Observe("B")
	shares := c.Shares()
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum = %v, want 1", sum)
	}
	// ticketinfo: 2 edges of 12 total.
	if math.Abs(shares["ticketinfo"]-2.0/12.0) > 1e-9 {
		t.Fatalf("share[ticketinfo] = %v", shares["ticketinfo"])
	}
}

func TestCounterEmptyShares(t *testing.T) {
	c := NewCounter(studyGraph())
	if len(c.Shares()) != 0 {
		t.Fatal("no load should yield empty shares")
	}
}

func TestCounterClampAtZero(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Complete("A") // unmatched
	if c.Total() != 0 {
		t.Fatalf("total went negative: %v", c.Total())
	}
	c.Observe("A")
	c.Complete("A")
	c.Complete("A")
	if c.Total() != 0 {
		t.Fatalf("double complete corrupted counts: %v", c.Total())
	}
}

func TestCounterUnknownRegionIgnored(t *testing.T) {
	c := NewCounter(studyGraph())
	c.Observe("nope")
	c.Complete("nope")
	if c.Total() != 0 {
		t.Fatal("unknown region affected counts")
	}
}

func TestRegionLoadRecovery(t *testing.T) {
	c := NewCounter(studyGraph())
	for i := 0; i < 30; i++ {
		c.Observe("A")
	}
	for i := 0; i < 20; i++ {
		c.Observe("B")
	}
	load := c.RegionLoad()
	if math.Abs(load["A"]-30) > 1e-9 {
		t.Fatalf("load[A] = %v, want 30", load["A"])
	}
	if math.Abs(load["B"]-20) > 1e-9 {
		t.Fatalf("load[B] = %v, want 20", load["B"])
	}
}

func TestRegionLoadPureB(t *testing.T) {
	c := NewCounter(studyGraph())
	for i := 0; i < 10; i++ {
		c.Observe("B")
	}
	load := c.RegionLoad()
	if load["A"] != 0 {
		t.Fatalf("load[A] = %v, want 0", load["A"])
	}
	if math.Abs(load["B"]-10) > 1e-9 {
		t.Fatalf("load[B] = %v, want 10", load["B"])
	}
}

// TestCounterSocialNetworkPinned pins Shares and RegionLoad on a fixed
// Observe/Complete sequence over the socialnet call graph, whose regions
// share services (media, post-storage, user), against values recorded
// from the name-keyed counter this index-keyed one replaced.
func TestCounterSocialNetworkPinned(t *testing.T) {
	spec := app.SocialNetwork()
	c := NewCounter(BuildGraph(spec))
	regions := spec.RegionNames()
	r := sim.NewRNG(11)
	open := map[string]int{}
	for op := 0; op < 200; op++ {
		region := regions[r.Intn(len(regions))]
		if open[region] == 0 || r.Intn(3) > 0 {
			c.Observe(region)
			open[region]++
		} else {
			c.Complete(region)
			open[region]--
		}
	}
	wantShares := map[string]float64{
		"compose-post":        0.044444444444444446,
		"home-timeline":       0.06666666666666667,
		"media":               0.15555555555555556,
		"post-storage":        0.15555555555555556,
		"social-graph":        0.1111111111111111,
		"text":                0.044444444444444446,
		"unique-id":           0.044444444444444446,
		"url-shorten":         0.044444444444444446,
		"user":                0.15555555555555556,
		"user-mention":        0.044444444444444446,
		"user-timeline":       0.08888888888888889,
		"write-home-timeline": 0.044444444444444446,
	}
	wantLoad := map[string]float64{"compose": 20, "home-timeline": 30, "user-timeline": 20}
	for name, got := range map[string]map[string]float64{"Shares": c.Shares(), "RegionLoad": c.RegionLoad()} {
		want := wantShares
		if name == "RegionLoad" {
			want = wantLoad
		}
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s[%s] = %v, want %v", name, k, got[k], v)
			}
		}
	}
}

// TestCounterObserveCompleteZeroAllocs: the per-request bookkeeping the
// fridge does at every arrival and completion allocates nothing.
func TestCounterObserveCompleteZeroAllocs(t *testing.T) {
	c := NewCounter(studyGraph())
	allocs := testing.AllocsPerRun(1000, func() {
		c.Observe("A")
		c.Observe("B")
		c.Complete("A")
		c.Complete("B")
	})
	if allocs != 0 {
		t.Fatalf("Observe+Complete allocated %.3f objects/op, want 0", allocs)
	}
}

// Property: for any interleaving of observes and completes, pending counts
// never go negative and shares stay normalized.
func TestCounterInvariantProperty(t *testing.T) {
	f := func(seed uint64, ops []bool) bool {
		c := NewCounter(studyGraph())
		r := sim.NewRNG(seed)
		open := 0
		for _, observe := range ops {
			region := "A"
			if r.Intn(2) == 0 {
				region = "B"
			}
			if observe || open == 0 {
				c.Observe(region)
				open++
			} else {
				c.Complete(region)
				open--
			}
			if c.Total() < 0 {
				return false
			}
			shares := c.Shares()
			var sum float64
			for _, v := range shares {
				if v < 0 {
					return false
				}
				sum += v
			}
			if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
