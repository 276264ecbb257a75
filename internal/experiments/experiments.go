// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function of a seed that returns
// text tables with the same rows/series the paper reports; the benchmark
// harness (bench_test.go) and the experiments CLI both dispatch through
// the registry here.
//
// Absolute numbers differ from the paper's testbed (this substrate is a
// calibrated simulator, not five Dell R730s); the shapes — orderings,
// crossovers, approximate factors — are the reproduction target. See
// EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/engine"
	"servicefridge/internal/metrics"
	"servicefridge/internal/power"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the short handle ("fig15", "table4").
	ID string
	// Title describes the paper artifact.
	Title string
	// Run regenerates the artifact.
	Run func(seed uint64) []*metrics.Table
}

// registry holds all experiments in paper order.
var registry = []Experiment{
	{"table2", "Table 2: testbed configuration", Table2},
	{"fig3", "Figure 3: execution-time distribution across a microservice region", Figure3},
	{"fig4", "Figure 4: call times of each microservice", Figure4},
	{"fig5", "Figure 5: response-time CDFs at different frequencies", Figure5},
	{"fig6", "Figure 6: effect of reducing frequency when isolating critical microservices", Figure6},
	{"fig7", "Figure 7: criticality changes under power capping", Figure7},
	{"table4", "Table 4: offline analysis of edge weight", Table4},
	{"fig11", "Figure 11: MCF vs request mix, quantity and power management", Figure11},
	{"fig12", "Figure 12: the effect of MCF variance on each microservice", Figure12},
	{"fig13", "Figure 13: frequency and power of representative microservices over time", Figure13},
	{"fig14", "Figure 14: the impact of mis-computing MCF on QoS", Figure14},
	{"fig15", "Figure 15: service time vs decreasing power budget across schemes", Figure15},
	{"fig16", "Figure 16: impact of power management schemes on representative microservices", Figure16},
	{"headline", "Headline: power reduction and QoS improvement of ServiceFridge", Headline},
}

// All returns every experiment in paper order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID looks an experiment up by its handle, covering both the paper
// registry and the extensions.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range extensions {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment handles in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// studyPools is the §6.4 load: 25 parallel workers on each region.
func studyPools() map[string]int { return map[string]int{"A": 25, "B": 25} }

// memo computes one value per key at most once. The map is
// mutex-guarded and each entry carries a sync.Once, so concurrent callers
// singleflight on one calibration run per key instead of racing or
// duplicating it; several experiments share each run this way.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

func (c *memo[K, V]) get(k K, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[K]*memoEntry[V]{}
	}
	e := c.m[k]
	if e == nil {
		e = &memoEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

var maxRequired memo[uint64, power.Watts]

// calibrated returns the measured maximum required power for the standard
// study workload, memoized per seed.
func calibrated(seed uint64) power.Watts {
	return maxRequired.get(seed, func() power.Watts {
		return engine.CalibrateMaxRequired(engine.Config{
			Seed:        seed,
			PoolWorkers: studyPools(),
			Duration:    20 * time.Second,
			ProfLabel:   "calibrate",
		})
	})
}

// closedLoop is what the open-loop experiments derive their offered rates
// and budget base from: an uncapped Baseline closed-loop run's
// post-warmup completions per region, its measurement window in seconds,
// and its peak draw.
type closedLoop struct {
	count  map[string]int
	window float64
	peak   power.Watts
}

// rate offers frac of region's measured closed-loop throughput.
func (c closedLoop) rate(frac float64, region string) float64 {
	return frac * float64(c.count[region]) / c.window
}

type closedLoopKey struct {
	seed   uint64
	family string
	pool   int
}

var closedLoops memo[closedLoopKey, closedLoop]

// calibratedClosedLoop runs, once per (seed, app family, pool), the
// calibration ext-openloop, ext-slo and ext-scenarios share: Baseline with
// pool closed-loop workers on every region, 5 s warmup plus 15 s measured.
func calibratedClosedLoop(seed uint64, family string, pool int) closedLoop {
	return closedLoops.get(closedLoopKey{seed, family, pool}, func() closedLoop {
		fam, _ := app.Builtin(family)
		spec := fam.New()
		pools := make(map[string]int, len(spec.RegionNames()))
		for _, r := range spec.RegionNames() {
			pools[r] = pool
		}
		cal := engine.Run(engine.Config{
			Seed:        seed,
			Spec:        spec,
			PoolWorkers: pools,
			Warmup:      5 * time.Second,
			Duration:    15 * time.Second,
			ProfLabel:   "calibrate",
		})
		c := closedLoop{
			count:  make(map[string]int, len(pools)),
			window: cal.Engine.Now().Sub(cal.WarmupEnd).Seconds(),
			peak:   cal.PeakDraw(),
		}
		for r := range pools {
			c.count[r] = cal.Summary(r).Count
		}
		return c
	})
}

// ghzCol formats a frequency column header.
func ghzCol(f float64) string { return fmt.Sprintf("%.1fGHz", f) }

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

// mixes returns the four access scenarios of §6.2 in paper order.
func mixes() []struct {
	Label string
	A, B  float64
} {
	return []struct {
		Label string
		A, B  float64
	}{
		{"30:0", 30, 0},
		{"30:20", 30, 20},
		{"20:30", 20, 30},
		{"0:30", 0, 30},
	}
}

// mixPools converts an A:B ratio into per-region closed-loop pool sizes
// with 50 workers total, preserving the ratio.
func mixPools(a, b float64) map[string]int {
	total := a + b
	if total == 0 {
		return nil
	}
	na := int(50*a/total + 0.5)
	pools := map[string]int{}
	if na > 0 {
		pools["A"] = na
	}
	if 50-na > 0 {
		pools["B"] = 50 - na
	}
	return pools
}
