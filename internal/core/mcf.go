package core

import (
	"sort"
	"time"

	"servicefridge/internal/cluster"
)

// DefaultRTRef is the required response time MCF is normalized to: the
// widely accepted 100 ms bound for interactive services (§5.2).
const DefaultRTRef = 100 * time.Millisecond

// Calculator computes MCF values over a bipartite graph.
type Calculator struct {
	g *Graph
	// RTRef is the normalization reference (§5.2). Defaults to
	// DefaultRTRef when zero.
	RTRef time.Duration
	// IgnoreBeta drops the QoS-power variance coefficient from Equation
	// (2) (β ≡ 1): the ablation that shows why the power profile matters
	// to criticality.
	IgnoreBeta bool
}

// NewCalculator returns a calculator with the default normalization.
func NewCalculator(g *Graph) *Calculator {
	return &Calculator{g: g, RTRef: DefaultRTRef}
}

func (c *Calculator) rtRef() time.Duration {
	if c.RTRef > 0 {
		return c.RTRef
	}
	return DefaultRTRef
}

// MCF computes the normalized criticality of every service given the
// per-region load (live or expected request counts per region — the
// dynamic factor) at a uniform frequency f.
//
// For service i:
//
//	MCF_i = Σ_r  In_{r,i} × W_{r,i} × β_i(f) / RTRef
//	In_{r,i} = load_r / Σ_{r'} load_{r'} × |services(r')|
//
// i.e. each region contributes its share of the graph's live edges times
// that edge's weight, matching Figure 8's indegree definition
// (In_d = (n+m)/(n+m+l)) combined with per-edge weights.
func (c *Calculator) MCF(load map[string]float64, f cluster.GHz) map[string]float64 {
	return c.MCFAt(load, func(string) cluster.GHz { return f })
}

// MCFInto is MCF reusing out as the result map when non-nil: existing
// keys are overwritten in place, so a caller that holds one map across
// control ticks computes MCF with zero steady-state allocations. The
// service set never changes within a run, so stale keys cannot linger.
func (c *Calculator) MCFInto(load map[string]float64, f cluster.GHz, out map[string]float64) map[string]float64 {
	if out == nil {
		return c.MCF(load, f)
	}
	var totalEdges float64
	for rn, l := range load {
		if l > 0 {
			totalEdges += l * float64(c.g.EdgeCount(rn))
		}
	}
	if totalEdges == 0 {
		for _, s := range c.g.services {
			out[s] = 0
		}
		return out
	}
	ref := float64(c.rtRef())
	for _, s := range c.g.services {
		beta := 1.0
		if !c.IgnoreBeta {
			beta = c.g.Beta(s, f)
		}
		var mcf float64
		for _, e := range c.g.Edges(s) {
			l := load[e.Region]
			if l <= 0 {
				continue
			}
			in := l / totalEdges
			mcf += in * float64(e.Weight()) * beta / ref
		}
		out[s] = mcf
	}
	return out
}

// MCFAt is MCF with a per-service frequency (services hosted on different
// zones run at different frequencies — the "timely power supply" input).
func (c *Calculator) MCFAt(load map[string]float64, freqOf func(service string) cluster.GHz) map[string]float64 {
	var totalEdges float64
	for rn, l := range load {
		if l > 0 {
			totalEdges += l * float64(c.g.EdgeCount(rn))
		}
	}
	out := make(map[string]float64, len(c.g.services))
	if totalEdges == 0 {
		for _, s := range c.g.services {
			out[s] = 0
		}
		return out
	}
	ref := float64(c.rtRef())
	for _, s := range c.g.services {
		beta := 1.0
		if !c.IgnoreBeta {
			beta = c.g.Beta(s, freqOf(s))
		}
		var mcf float64
		for _, e := range c.g.Edges(s) {
			l := load[e.Region]
			if l <= 0 {
				continue
			}
			in := l / totalEdges
			mcf += in * float64(e.Weight()) * beta / ref
		}
		out[s] = mcf
	}
	return out
}

// Rank orders services by descending MCF value, name-ascending on ties.
func Rank(mcf map[string]float64) []string {
	out := make([]string, 0, len(mcf))
	for s := range mcf {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if mcf[out[i]] != mcf[out[j]] {
			return mcf[out[i]] > mcf[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Criticality is the three-level classification of §5.2.
type Criticality int

const (
	// Low criticality: aggressive capping is safe (hot zone).
	Low Criticality = iota
	// Uncertain criticality: buffer between hot and cold (warm zone).
	Uncertain
	// High criticality: QoS must be guaranteed (cold zone).
	High
)

func (c Criticality) String() string {
	switch c {
	case Low:
		return "low"
	case Uncertain:
		return "uncertain"
	case High:
		return "high"
	default:
		return "invalid"
	}
}

// Classifier maps MCF values to criticality levels per §5.2: a service
// whose MCF stays below the threshold even at the lowest power state is
// low-criticality; one that exceeds it even when power changes only
// slightly (one P-state below maximum) is highly critical; the rest are
// uncertain and live in the warm zone until the controller promotes or
// demotes them.
//
// The paper states the threshold as normalized MCF = 1 but its own Figure
// 11 reports normalized values well above 1 for uncapped services, so the
// absolute scale is not recoverable; Threshold is therefore calibrated to
// reproduce Figure 11's three-level structure on the study workload and
// exposed for tuning.
type Classifier struct {
	calc *Calculator
	// Threshold is the high-criticality cut at the near-maximum
	// frequency.
	Threshold float64
	// LowMargin scales the threshold for the low cut at the minimum
	// frequency.
	LowMargin float64
}

// NewClassifier returns a classifier with the calibrated defaults.
func NewClassifier(calc *Calculator) *Classifier {
	return &Classifier{calc: calc, Threshold: 0.25, LowMargin: 0.8}
}

// Classify labels every service for the given region load.
func (cl *Classifier) Classify(load map[string]float64) map[string]Criticality {
	nearMax := cluster.StepDown(cluster.FreqMax)
	atNearMax := cl.calc.MCF(load, nearMax)
	atMin := cl.calc.MCF(load, cluster.FreqMin)
	out := make(map[string]Criticality, len(atNearMax))
	for s := range atNearMax {
		switch {
		case atNearMax[s] >= cl.Threshold:
			out[s] = High
		case atMin[s] < cl.Threshold*cl.LowMargin:
			out[s] = Low
		default:
			out[s] = Uncertain
		}
	}
	return out
}

// Levels groups a classification into name lists, each sorted.
func Levels(m map[string]Criticality) (low, uncertain, high []string) {
	for s, c := range m {
		switch c {
		case Low:
			low = append(low, s)
		case Uncertain:
			uncertain = append(uncertain, s)
		case High:
			high = append(high, s)
		}
	}
	sort.Strings(low)
	sort.Strings(uncertain)
	sort.Strings(high)
	return
}
