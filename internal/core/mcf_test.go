package core

import (
	"math"
	"testing"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
)

func studyGraph() *Graph { return BuildGraph(app.TwoRegionStudy()) }

func TestGraphStructure(t *testing.T) {
	g := studyGraph()
	if got := len(g.Services()); got != 8 {
		t.Fatalf("V_F has %d vertices, want 8", got)
	}
	if got := len(g.APIs()); got != 2 {
		t.Fatalf("V_A has %d vertices, want 2", got)
	}
	if g.EdgeCount("A") != 8 || g.EdgeCount("B") != 4 {
		t.Fatalf("edge counts A=%d B=%d, want 8/4", g.EdgeCount("A"), g.EdgeCount("B"))
	}
	// ticketinfo has two edge types (regions A and B), seat only one.
	if got := len(g.Edges("ticketinfo")); got != 2 {
		t.Fatalf("ticketinfo has %d edges, want 2", got)
	}
	if got := len(g.Edges("seat")); got != 1 {
		t.Fatalf("seat has %d edges, want 1", got)
	}
}

func TestEdgeWeightsMatchTable4(t *testing.T) {
	g := studyGraph()
	want := map[string]map[string]float64{ // service -> region -> W in ms
		"ticketinfo": {"A": 536.8, "B": 8.2},
		"basic":      {"A": 396, "B": 5.6},
		"seat":       {"A": 411.2},
		"travel":     {"A": 225},
		"station":    {"A": 91, "B": 2.4},
		"route":      {"A": 51, "B": 1.4},
		"config":     {"A": 32},
		"train":      {"A": 50.4},
	}
	for svc, regions := range want {
		edges := g.Edges(svc)
		if len(edges) != len(regions) {
			t.Fatalf("%s has %d edges, want %d", svc, len(edges), len(regions))
		}
		for _, e := range edges {
			w := regions[e.Region]
			if math.Abs(float64(e.Weight())-w*float64(time.Millisecond)) > float64(50*time.Microsecond) {
				t.Fatalf("W[%s,%s] = %v, want %.1fms", svc, e.Region, e.Weight(), w)
			}
		}
	}
}

func TestMCFPureAOrdering(t *testing.T) {
	c := NewCalculator(studyGraph())
	mcf := c.MCF(map[string]float64{"A": 30}, cluster.FreqMax)
	// With only region A active, ordering follows W_A:
	// ticketinfo > seat > basic > travel > station > route > train > config.
	rank := Rank(mcf)
	want := []string{"ticketinfo", "seat", "basic", "travel", "station", "route", "train", "config"}
	for i, s := range want {
		if rank[i] != s {
			t.Fatalf("rank[%d] = %s, want %s (full: %v)", i, rank[i], s, rank)
		}
	}
	// Exact value: In = 30/(30*8), W = 536.8ms, RTRef = 100ms.
	wantTI := (30.0 / 240.0) * 536.8 / 100.0
	if math.Abs(mcf["ticketinfo"]-wantTI) > 1e-6 {
		t.Fatalf("MCF[ticketinfo] = %v, want %v", mcf["ticketinfo"], wantTI)
	}
}

// TestMCFVecMatchesMCF: the dense kernel and the name-keyed adapter agree,
// services outside the graph read 0 (the kernel overwrites stale
// values), and the kernel allocates nothing.
func TestMCFVecMatchesMCF(t *testing.T) {
	g := studyGraph()
	c := NewCalculator(g)
	loads := []map[string]float64{
		{"A": 30, "B": 20}, {"A": 12}, {"B": 7}, {},
	}
	vec := make([]float64, g.NumRegions())
	out := make([]float64, g.spec.NumServices())
	for _, load := range loads {
		want := c.MCF(load, cluster.FreqMax)
		for i := range out {
			out[i] = -1
		}
		g.LoadVec(load, vec)
		c.MCFVec(vec, cluster.FreqMax, out)
		for id, v := range out {
			name := g.spec.ServiceByID(id).Name
			if w, ok := want[name]; v != w || (!ok && v != 0) {
				t.Fatalf("load %v: MCFVec[%s] = %v, MCF = %v", load, name, v, w)
			}
		}
	}
	g.LoadVec(loads[0], vec)
	allocs := testing.AllocsPerRun(200, func() {
		c.MCFVec(vec, cluster.FreqMax, out)
	})
	if allocs != 0 {
		t.Fatalf("MCFVec allocated %.3f objects/op, want 0", allocs)
	}
}

// TestMCFIgnoresMapOrder is the regression for an edge total summed by
// ranging over the load map: float addition is not associative, so with
// three regions the last bits of every MCF value depended on Go's random
// map iteration order (200 calls on this load gave two different results
// before the total was summed in region order). Every call must now give
// the same bits.
func TestMCFIgnoresMapOrder(t *testing.T) {
	c := NewCalculator(BuildGraph(app.SocialNetwork()))
	load := map[string]float64{"compose": 0.1, "home-timeline": 0.2, "user-timeline": 0.3}
	first := c.MCF(load, cluster.FreqMax)
	for i := 0; i < 200; i++ {
		for s, v := range c.MCF(load, cluster.FreqMax) {
			if math.Float64bits(v) != math.Float64bits(first[s]) {
				t.Fatalf("call %d: MCF[%s] = %v, first call gave %v", i, s, v, first[s])
			}
		}
	}
}

func TestMCFZeroLoad(t *testing.T) {
	c := NewCalculator(studyGraph())
	mcf := c.MCF(map[string]float64{}, cluster.FreqMax)
	for s, v := range mcf {
		if v != 0 {
			t.Fatalf("MCF[%s] = %v with no load, want 0", s, v)
		}
	}
}

func TestMCFScaleInvariance(t *testing.T) {
	// MCF depends on the load *ratio*, not magnitude (Equation 3 is a
	// share).
	c := NewCalculator(studyGraph())
	a := c.MCF(map[string]float64{"A": 30, "B": 20}, cluster.FreqMax)
	b := c.MCF(map[string]float64{"A": 3, "B": 2}, cluster.FreqMax)
	for s := range a {
		if math.Abs(a[s]-b[s]) > 1e-9 {
			t.Fatalf("MCF[%s] not scale invariant: %v vs %v", s, a[s], b[s])
		}
	}
}

func TestMCFDecreasesWithBShare(t *testing.T) {
	// Figure 11: "the MCF of microservices decreases when the percentage
	// of requests accessing B increases".
	c := NewCalculator(studyGraph())
	ratios := []map[string]float64{
		{"A": 30}, {"A": 30, "B": 20}, {"A": 20, "B": 30}, {"B": 30},
	}
	var prev map[string]float64
	for i, load := range ratios {
		mcf := c.MCF(load, cluster.FreqMax)
		if prev != nil {
			for _, s := range []string{"seat", "travel", "config", "train"} {
				if mcf[s] > prev[s]+1e-9 {
					t.Fatalf("MCF[%s] rose from %v to %v at ratio %d", s, prev[s], mcf[s], i)
				}
			}
		}
		prev = mcf
	}
	// A-only services vanish at 0:30.
	if prev["seat"] != 0 || prev["config"] != 0 {
		t.Fatal("A-only services should have zero MCF under pure-B load")
	}
}

func TestMCFRisesAsFrequencyDrops(t *testing.T) {
	// §5.2: "When limiting the power consumed by a microservice, the MCF
	// varies with the QoS-power relationship" — β grows as f drops.
	c := NewCalculator(studyGraph())
	load := map[string]float64{"A": 30, "B": 20}
	prev := map[string]float64{}
	for _, s := range app.StudyServiceNames() {
		prev[s] = math.Inf(1)
	}
	// Descending frequency -> non-decreasing MCF... iterate ascending and
	// check values fall.
	for _, f := range cluster.ProfilePoints() {
		mcf := c.MCF(load, f)
		for s, v := range mcf {
			if v > prev[s]+1e-9 {
				t.Fatalf("MCF[%s] rose with frequency at %v", s, f)
			}
			prev[s] = v
		}
	}
}

func TestTravelDemotionAt3020(t *testing.T) {
	// §6.2: "when the ratio of A and B transfers from 30:0 to 30:20,
	// travel becomes an uncertain-criticality microservice from a
	// highly-critical one."
	c := NewCalculator(studyGraph())
	cl := NewClassifier(c)
	at300 := cl.Classify(map[string]float64{"A": 30})
	at3020 := cl.Classify(map[string]float64{"A": 30, "B": 20})
	if at300["travel"] != High {
		t.Fatalf("travel at 30:0 = %v, want high", at300["travel"])
	}
	if at3020["travel"] != Uncertain {
		t.Fatalf("travel at 30:20 = %v, want uncertain", at3020["travel"])
	}
}

func TestClassifyPureBAllSameLevel(t *testing.T) {
	// §6.3 / Figure 12: at 0:30 every service lands in the same
	// (non-high) level, so the controller throttles them uniformly.
	c := NewCalculator(studyGraph())
	cl := NewClassifier(c)
	got := cl.Classify(map[string]float64{"B": 30})
	for s, lvl := range got {
		if lvl == High {
			t.Fatalf("%s classified high under pure-B load", s)
		}
	}
	low, _, _ := Levels(got)
	if len(low) != len(got) {
		t.Fatalf("under pure-B load all should be low, got low=%v", low)
	}
}

func TestClassifyThreeLevelsAt300(t *testing.T) {
	c := NewCalculator(studyGraph())
	cl := NewClassifier(c)
	got := cl.Classify(map[string]float64{"A": 30})
	low, unc, high := Levels(got)
	if len(high) == 0 || len(low) == 0 {
		t.Fatalf("classification degenerate: low=%v uncertain=%v high=%v", low, unc, high)
	}
	// The paper's §3.4 critical set includes ticketinfo; station-group
	// services (route, config, train) are non-critical.
	if got["ticketinfo"] != High {
		t.Fatalf("ticketinfo = %v, want high", got["ticketinfo"])
	}
	for _, s := range []string{"route", "config", "train"} {
		if got[s] != Low {
			t.Fatalf("%s = %v, want low", s, got[s])
		}
	}
}

func TestRankDeterministicOnTies(t *testing.T) {
	mcf := map[string]float64{"b": 1, "a": 1, "c": 2}
	r := Rank(mcf)
	if r[0] != "c" || r[1] != "a" || r[2] != "b" {
		t.Fatalf("rank = %v", r)
	}
}

// TestFigure7ToyExample reproduces the paper's Figure 7: four
// microservices where criticality ordering changes between 2.4 GHz and
// 2.0 GHz. Microservice a has the largest per-call time but c (most
// instances) has larger total; at reduced frequency c's total equals b's.
func TestFigure7ToyExample(t *testing.T) {
	spec := app.NewSpec()
	spec.AddService(app.Microservice{Name: "api", Kind: app.KindAPI})
	// a: long exec, called once, insensitive. b: called 3x, sensitive.
	// c: most instances (5x), moderately sensitive. d: short, rare.
	spec.AddService(app.Microservice{Name: "a", Kind: app.KindFunction, CPUShare: 0.0})
	spec.AddService(app.Microservice{Name: "b", Kind: app.KindFunction, CPUShare: 0.9})
	spec.AddService(app.Microservice{Name: "c", Kind: app.KindFunction, CPUShare: 0.2})
	spec.AddService(app.Microservice{Name: "d", Kind: app.KindFunction, CPUShare: 0.5})
	spec.AddRegion(app.Region{
		Name: "r", API: "api", APIExec: time.Millisecond,
		Stages: []app.Stage{{
			{Service: "a", Times: 1, Exec: 9 * time.Millisecond},
			{Service: "b", Times: 3, Exec: 3 * time.Millisecond},
			{Service: "c", Times: 5, Exec: 2 * time.Millisecond},
			{Service: "d", Times: 1, Exec: 2 * time.Millisecond},
		}},
	})
	c := NewCalculator(BuildGraph(spec))
	load := map[string]float64{"r": 10}
	atMax := c.MCF(load, cluster.FreqMax)
	// a's per-call time (9) exceeds c's (2), but c's total (10) wins.
	if atMax["c"] <= atMax["a"] {
		t.Fatalf("at 2.4GHz c (%v) should exceed a (%v)", atMax["c"], atMax["a"])
	}
	// At reduced frequency, b (sensitive) catches up with c.
	at20 := c.MCF(load, 2.0)
	gapMax := math.Abs(atMax["b"] - atMax["c"])
	gap20 := math.Abs(at20["b"] - at20["c"])
	if gap20 >= gapMax {
		t.Fatalf("frequency drop should close the b-c gap: %v -> %v", gapMax, gap20)
	}
}

func TestCalculatorCustomRTRef(t *testing.T) {
	g := studyGraph()
	c1 := NewCalculator(g)
	c2 := NewCalculator(g)
	c2.RTRef = 50 * time.Millisecond
	load := map[string]float64{"A": 30}
	a := c1.MCF(load, cluster.FreqMax)
	b := c2.MCF(load, cluster.FreqMax)
	if math.Abs(b["ticketinfo"]/a["ticketinfo"]-2.0) > 1e-9 {
		t.Fatal("halving RTRef should double MCF")
	}
}
