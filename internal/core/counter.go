package core

// This file implements the dynamic half of MCF: the per-vertex indegree
// counters of Figure 10. Each function-service vertex counts its live
// request-access edges; the count at a time slot is the carry-over from
// the previous slot (requests still in flight) plus the edges of requests
// arriving in the current slot, minus the edges completed (the Ψ terms of
// Figure 10).

// Counter maintains live indegree counts per function service.
type Counter struct {
	g *Graph
	// pending[id] is the number of live request-access edges into the
	// service with dense spec ID id.
	pending []float64
	// unique[ri] lists the services only region ri calls, in the region's
	// call order: RegionLoadInto's first-pass estimators.
	unique [][]int
}

// NewCounter creates zeroed counters over the graph's services.
func NewCounter(g *Graph) *Counter {
	c := &Counter{g: g, pending: make([]float64, g.spec.NumServices())}
	c.unique = make([][]int, len(g.regions))
	for ri, ids := range g.regionSvcs {
		for _, id := range ids {
			if len(g.edgesByID[id]) == 1 {
				c.unique[ri] = append(c.unique[ri], id)
			}
		}
	}
	return c
}

// Observe records the arrival of one request to region: every service the
// region calls gains one pending edge.
func (c *Counter) Observe(region string) {
	r := c.g.spec.Region(region)
	if r == nil {
		return
	}
	for _, id := range r.ServiceIDs() {
		c.pending[id]++
	}
}

// Complete records the completion of one request to region: its edges are
// retired (the red-circled Ψ terms of Figure 10). Counts clamp at zero so
// an unmatched Complete cannot corrupt the shares.
func (c *Counter) Complete(region string) {
	r := c.g.spec.Region(region)
	if r == nil {
		return
	}
	for _, id := range r.ServiceIDs() {
		if c.pending[id] > 0 {
			c.pending[id]--
		}
	}
}

// Pending returns the live edge count for service.
func (c *Counter) Pending(service string) float64 {
	if ms := c.g.spec.Service(service); ms != nil {
		return c.pending[ms.ID()]
	}
	return 0
}

// Total returns the total live edge count across all services.
func (c *Counter) Total() float64 {
	var t float64
	for _, v := range c.pending {
		t += v
	}
	return t
}

// Shares returns In_i = res_i / Σ_j res_j for every service with live
// edges (Equation 3). With no live edges it returns an empty map.
func (c *Counter) Shares() map[string]float64 {
	total := c.Total()
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for id, v := range c.pending {
		if v > 0 {
			out[c.g.spec.ServiceByID(id).Name] = v / total
		}
	}
	return out
}

// RegionLoadInto estimates per-region live request counts from the
// pending edges into load, indexed by region (see Graph.LoadVec), by
// solving the (overdetermined) counts against region membership greedily:
// services called by exactly one region attribute their mean pending
// count to it. It feeds the MCF calculator's load parameter during
// operation and allocates nothing.
//
// It reports whether any region has an estimate: true when some region
// has a service of its own, whose (possibly zero) mean is always an
// estimate, or when a shared service leaves a positive residual. A false
// result means no live traffic can be attributed.
func (c *Counter) RegionLoadInto(load []float64) bool {
	found := false
	for ri, unique := range c.unique {
		load[ri] = 0
		if len(unique) > 0 {
			var sum float64
			for _, id := range unique {
				sum += c.pending[id]
			}
			load[ri] = sum / float64(len(unique))
			found = true
		}
	}
	// Regions with no unique service: attribute the residual of a shared
	// service evenly. Earlier regions' estimates, including ones made in
	// this pass, are already subtracted.
	for ri, unique := range c.unique {
		if len(unique) > 0 {
			continue
		}
		var best float64
		for _, id := range c.g.regionSvcs[ri] {
			residual := c.pending[id]
			for _, e := range c.g.edgesByID[id] {
				if e.region != ri {
					residual -= load[e.region]
				}
			}
			if residual > best {
				best = residual
			}
		}
		if best > 0 {
			load[ri] = best
			found = true
		}
	}
	return found
}
