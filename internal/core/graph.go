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
)

// Graph is the bipartite model extracted from an application spec by the
// offline analysis stage of Figure 9 (list microservices and
// relationships, list regions, analyze call times).
type Graph struct {
	spec *app.Spec
	// services (V_F) in first-seen order.
	services []string

	// The graph in dense form for the per-tick kernels, which index
	// regions by their position in spec order and services by spec ID.
	regions     []string   // region names (the V_A vertices' regions) by index
	regionEdges []int      // |services(region)| by region index
	regionSvcs  [][]int    // each region's service IDs (Region.ServiceIDs)
	serviceIDs  []int      // graph services as spec IDs, in services order
	edgesByID   [][]idEdge // each spec service's edges, one per calling region in region order
}

// idEdge is one edge of E: a region (API vertex) invoking a function
// service, as the calling region's index and the static weight at
// FreqMax, call_ts × exec_t of Equation 2, as a float64.
type idEdge struct {
	region int
	weight float64
}

// BuildGraph performs the offline analysis: it walks the spec's regions
// and materializes the bipartite graph.
func BuildGraph(spec *app.Spec) *Graph {
	g := &Graph{
		spec:      spec,
		regions:   spec.RegionNames(),
		edgesByID: make([][]idEdge, spec.NumServices()),
	}
	for ri, rn := range g.regions {
		r := spec.Region(rn)
		g.regionEdges = append(g.regionEdges, len(r.ServiceIDs()))
		g.regionSvcs = append(g.regionSvcs, r.ServiceIDs())
		for _, sn := range r.ServiceNames() {
			c, _ := r.CallTo(sn)
			id := spec.Service(sn).ID()
			if g.edgesByID[id] == nil {
				g.services = append(g.services, sn)
				g.serviceIDs = append(g.serviceIDs, id)
			}
			g.edgesByID[id] = append(g.edgesByID[id], idEdge{region: ri, weight: float64(time.Duration(c.Times) * c.Exec)})
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
