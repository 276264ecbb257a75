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

	// Dense views of the same graph for the per-tick kernels, which index
	// regions by their position in spec order and services by spec ID.
	regions     []string   // region names by index
	regionEdges []int      // |services(region)| by region index
	regionSvcs  [][]int    // each region's service IDs (Region.ServiceIDs)
	serviceIDs  []int      // graph services as spec IDs, in services order
	edgesByID   [][]idEdge // each spec service's edges, in edges order
}

// idEdge is one Edge in the dense view: the calling region's index and the
// static weight call_ts × exec_t as a float64.
type idEdge struct {
	region int
	weight float64
}

// BuildGraph performs the offline analysis: it walks the spec's regions
// and materializes the bipartite graph.
func BuildGraph(spec *app.Spec) *Graph {
	g := &Graph{
		spec:      spec,
		edges:     make(map[string][]Edge),
		regions:   spec.RegionNames(),
		edgesByID: make([][]idEdge, spec.NumServices()),
	}
	for ri, rn := range g.regions {
		r := spec.Region(rn)
		g.apis = append(g.apis, r.API)
		g.regionEdges = append(g.regionEdges, len(r.ServiceIDs()))
		g.regionSvcs = append(g.regionSvcs, r.ServiceIDs())
		for _, sn := range r.ServiceNames() {
			c, _ := r.CallTo(sn)
			e := Edge{Region: rn, Service: sn, CallTimes: c.Times, Exec: c.Exec}
			g.edges[sn] = append(g.edges[sn], e)
			id := spec.Service(sn).ID()
			if g.edgesByID[id] == nil {
				g.services = append(g.services, sn)
				g.serviceIDs = append(g.serviceIDs, id)
			}
			g.edgesByID[id] = append(g.edgesByID[id], idEdge{region: ri, weight: float64(e.Weight())})
		}
	}
	return g
}

// Services returns the V_F vertices (function services with at least one
// edge), in first-seen order.
func (g *Graph) Services() []string { return append([]string(nil), g.services...) }

// ServiceIDs returns the V_F vertices as spec service IDs, in Services
// order. The slice is a read-only view, shared by every caller.
func (g *Graph) ServiceIDs() []int { return g.serviceIDs }

// NumRegions returns the number of regions: the length of a dense load
// vector, indexed by each region's position in the spec's RegionNames.
func (g *Graph) NumRegions() int { return len(g.regions) }

// LoadVec writes a region-keyed load into out, indexed by region; regions
// the map lacks read 0 and keys naming no region are ignored.
func (g *Graph) LoadVec(load map[string]float64, out []float64) {
	for i, rn := range g.regions {
		out[i] = load[rn]
	}
}

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
