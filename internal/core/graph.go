// Package core implements the paper's primary contribution: the
// Microservice Criticality Factor (MCF).
//
// The application is modelled as a bipartite graph G = (V_A, V_F, E)
// (§4, Figure 8): V_A holds the API-layer vertices, V_F the
// function/database service pairs, and E the directed edges from an API to
// every function service its requests invoke. For microservice i,
//
//	MCF_i = In_i × W_i                                   (Equation 1)
//	W_i   = call_ts_i × exec_t_i × β_i                   (Equation 2)
//	In_i  = res_i / Σ_j res_j                            (Equation 3)
//
// where call_ts and exec_t are the offline-profiled call times and
// execution time of the edge, β_i is the QoS-power variance coefficient
// (execution-time inflation at the current frequency), and In_i is the
// dynamic indegree: the service's share of live request-access edges,
// maintained by per-vertex counters updated each time slot (Figure 10).
// MCF is normalized to the application's required response time (§5.2,
// 100 ms for interactive services) and thresholded into three criticality
// levels.
package core

import (
	"sort"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
)

// Edge is one aggregated edge of the bipartite graph: a region (API
// vertex) invoking a function service with profiled call times and
// execution time.
type Edge struct {
	Region  string
	Service string
	// CallTimes is call_ts of Equation 2.
	CallTimes int
	// Exec is exec_t of Equation 2 (mean per-invocation time at FreqMax).
	Exec time.Duration
}

// Weight returns the edge's static weight at FreqMax: call_ts × exec_t.
func (e Edge) Weight() time.Duration { return time.Duration(e.CallTimes) * e.Exec }

// Graph is the bipartite model extracted from an application spec by the
// offline analysis stage of Figure 9 (list microservices and
// relationships, list regions, analyze call times).
type Graph struct {
	spec *app.Spec
	// apis (V_A) and services (V_F) in stable order.
	apis     []string
	services []string
	// edges grouped by service, then by region, in stable order.
	edges map[string][]Edge
}

// BuildGraph performs the offline analysis: it walks the spec's regions
// and materializes the bipartite graph.
func BuildGraph(spec *app.Spec) *Graph {
	g := &Graph{
		spec:  spec,
		edges: make(map[string][]Edge),
	}
	seenSvc := map[string]bool{}
	for _, rn := range spec.RegionNames() {
		r := spec.Region(rn)
		g.apis = append(g.apis, r.API)
		for _, sn := range r.ServiceNames() {
			c, _ := r.CallTo(sn)
			g.edges[sn] = append(g.edges[sn], Edge{
				Region:    rn,
				Service:   sn,
				CallTimes: c.Times,
				Exec:      c.Exec,
			})
			if !seenSvc[sn] {
				seenSvc[sn] = true
				g.services = append(g.services, sn)
			}
		}
	}
	return g
}

// Spec returns the application the graph was built from.
func (g *Graph) Spec() *app.Spec { return g.spec }

// Services returns the V_F vertices (function services with at least one
// edge), in first-seen order.
func (g *Graph) Services() []string { return append([]string(nil), g.services...) }

// APIs returns the V_A vertices in region order.
func (g *Graph) APIs() []string { return append([]string(nil), g.apis...) }

// Edges returns the edges into service, one per calling region.
func (g *Graph) Edges(service string) []Edge { return g.edges[service] }

// EdgeCount returns the number of distinct edges one request to region
// contributes (|services(region)|).
func (g *Graph) EdgeCount(region string) int {
	if r := g.spec.Region(region); r != nil {
		return len(r.ServiceIDs())
	}
	return 0
}

// Beta returns the variance coefficient β of service at frequency f.
func (g *Graph) Beta(service string, f cluster.GHz) float64 {
	ms := g.spec.Service(service)
	if ms == nil {
		return 1
	}
	return ms.Beta(f)
}

// SortedServices returns the V_F vertices sorted by name, for stable
// report output.
func (g *Graph) SortedServices() []string {
	out := g.Services()
	sort.Strings(out)
	return out
}
