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
//
// MCF is the name-keyed adapter over MCFVec, for reports and tools; the
// control tick calls MCFVec directly.
func (c *Calculator) MCF(load map[string]float64, f cluster.GHz) map[string]float64 {
	vec := make([]float64, len(c.g.regions))
	c.g.LoadVec(load, vec)
	mcf := make([]float64, c.g.spec.NumServices())
	c.MCFVec(vec, f, mcf)
	out := make(map[string]float64, len(c.g.services))
	for i, id := range c.g.serviceIDs {
		out[c.g.services[i]] = mcf[id]
	}
	return out
}

// MCFVec is MCF on dense vectors: load is indexed by region (see
// Graph.LoadVec) and out by spec service ID, with services outside the
// graph reading 0. The edge total is summed in region order, so the
// result never depends on how the caller built load. It allocates
// nothing.
func (c *Calculator) MCFVec(load []float64, f cluster.GHz, out []float64) {
	g := c.g
	var totalEdges float64
	for ri, l := range load {
		if l > 0 {
			totalEdges += l * float64(g.regionEdges[ri])
		}
	}
	clear(out[:g.spec.NumServices()])
	if totalEdges == 0 {
		return
	}
	ref := float64(c.rtRef())
	for _, id := range g.serviceIDs {
		beta := 1.0
		if !c.IgnoreBeta {
			beta = g.spec.ServiceByID(id).Beta(f)
		}
		var mcf float64
		for _, e := range g.edgesByID[id] {
			l := load[e.region]
			if l <= 0 {
				continue
			}
			in := l / totalEdges
			mcf += in * e.weight * beta / ref
		}
		out[id] = mcf
	}
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
//
// A Classifier keeps scratch vectors, so it is not safe for concurrent
// use.
type Classifier struct {
	calc *Calculator
	// Threshold is the high-criticality cut at the near-maximum
	// frequency.
	Threshold float64
	// LowMargin scales the threshold for the low cut at the minimum
	// frequency.
	LowMargin float64

	// atNearMax and atMin hold ClassifyVec's two MCF evaluations.
	atNearMax, atMin []float64
}

// NewClassifier returns a classifier with the calibrated defaults.
func NewClassifier(calc *Calculator) *Classifier {
	n := calc.g.spec.NumServices()
	return &Classifier{
		calc: calc, Threshold: 0.25, LowMargin: 0.8,
		atNearMax: make([]float64, n), atMin: make([]float64, n),
	}
}

// Classify labels every service for the given region load: the
// name-keyed adapter over ClassifyVec.
func (cl *Classifier) Classify(load map[string]float64) map[string]Criticality {
	g := cl.calc.g
	vec := make([]float64, len(g.regions))
	g.LoadVec(load, vec)
	lv := make([]Criticality, g.spec.NumServices())
	cl.ClassifyVec(vec, lv)
	out := make(map[string]Criticality, len(g.services))
	for i, id := range g.serviceIDs {
		out[g.services[i]] = lv[id]
	}
	return out
}

// ClassifyVec is Classify on dense vectors: load is indexed by region and
// out by spec service ID, with services outside the graph reading Low. It
// allocates nothing.
func (cl *Classifier) ClassifyVec(load []float64, out []Criticality) {
	g := cl.calc.g
	cl.calc.MCFVec(load, cluster.StepDown(cluster.FreqMax), cl.atNearMax)
	cl.calc.MCFVec(load, cluster.FreqMin, cl.atMin)
	clear(out[:g.spec.NumServices()])
	for _, id := range g.serviceIDs {
		switch {
		case cl.atNearMax[id] >= cl.Threshold:
			out[id] = High
		case cl.atMin[id] < cl.Threshold*cl.LowMargin:
			out[id] = Low
		default:
			out[id] = Uncertain
		}
	}
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
