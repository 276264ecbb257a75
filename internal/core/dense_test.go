package core

import (
	"math"
	"testing"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

// The name-keyed implementations the dense kernels replaced, kept as
// references: refRegionLoad is the old RegionLoad verbatim; refMCF is the
// old MCF with its edge total summed in region order (the map-order sum
// was a bug); refClassify is the old Classify over refMCF.

func refRegionLoad(c *Counter) map[string]float64 {
	load := map[string]float64{}
	for _, rn := range c.g.spec.RegionNames() {
		r := c.g.spec.Region(rn)
		var unique []int
		for _, id := range r.ServiceIDs() {
			if len(c.g.Edges(c.g.spec.ServiceByID(id).Name)) == 1 {
				unique = append(unique, id)
			}
		}
		if len(unique) > 0 {
			var sum float64
			for _, id := range unique {
				sum += c.pending[id]
			}
			load[rn] = sum / float64(len(unique))
		}
	}
	for _, rn := range c.g.spec.RegionNames() {
		if _, done := load[rn]; done {
			continue
		}
		r := c.g.spec.Region(rn)
		var best float64
		for _, id := range r.ServiceIDs() {
			residual := c.pending[id]
			for _, e := range c.g.Edges(c.g.spec.ServiceByID(id).Name) {
				if e.Region != rn {
					residual -= load[e.Region]
				}
			}
			if residual > best {
				best = residual
			}
		}
		if best > 0 {
			load[rn] = best
		}
	}
	return load
}

func refMCF(c *Calculator, load map[string]float64, f cluster.GHz) map[string]float64 {
	var totalEdges float64
	for _, rn := range c.g.spec.RegionNames() {
		if l := load[rn]; l > 0 {
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

func refClassify(cl *Classifier, load map[string]float64) map[string]Criticality {
	atNearMax := refMCF(cl.calc, load, cluster.StepDown(cluster.FreqMax))
	atMin := refMCF(cl.calc, load, cluster.FreqMin)
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

// checkDense runs the three kernels on one load and requires every value
// bit-identical to the references. vec is load as a region vector.
func checkDense(t *testing.T, c *Calculator, cl *Classifier, load map[string]float64, vec []float64) {
	t.Helper()
	g := c.g
	n := g.spec.NumServices()
	mcf := make([]float64, n)
	for _, f := range []cluster.GHz{cluster.FreqMax, 2.0, cluster.FreqMin} {
		want := refMCF(c, load, f)
		c.MCFVec(vec, f, mcf)
		for id, v := range mcf {
			name := g.spec.ServiceByID(id).Name
			if math.Float64bits(v) != math.Float64bits(want[name]) {
				t.Fatalf("load %v at %v: MCFVec[%s] = %v, reference %v", load, f, name, v, want[name])
			}
		}
	}
	lv := make([]Criticality, n)
	want := refClassify(cl, load)
	cl.ClassifyVec(vec, lv)
	for id, got := range lv {
		name := g.spec.ServiceByID(id).Name
		if got != want[name] {
			t.Fatalf("load %v: ClassifyVec[%s] = %v, reference %v", load, name, got, want[name])
		}
	}
}

// TestDenseKernelsMatchReference drives RegionLoadInto, MCFVec and
// ClassifyVec with random indegree counters (including idle and
// single-region traffic) and random override loads (fractions, zeros,
// negatives, missing regions) on three call graphs, and requires them to
// match the name-keyed references bit for bit — and RegionLoadInto to
// agree on whether there is any load.
func TestDenseKernelsMatchReference(t *testing.T) {
	specs := map[string]*app.Spec{
		"study": app.TwoRegionStudy(), "socialnet": app.SocialNetwork(), "trainticket": app.TrainTicket(),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			g := BuildGraph(spec)
			regions := spec.RegionNames()
			r := sim.NewRNG(5)
			for _, ignoreBeta := range []bool{false, true} {
				c := NewCalculator(g)
				c.IgnoreBeta = ignoreBeta
				cl := NewClassifier(c)
				vec := make([]float64, g.NumRegions())
				for trial := 0; trial < 200; trial++ {
					// Live counters: a random subset of regions (sometimes
					// none, sometimes one) with random open requests, some
					// then completed.
					cnt := NewCounter(g)
					for _, rn := range regions {
						if r.Intn(3) == 0 {
							continue
						}
						k := r.Intn(40)
						for i := 0; i < k; i++ {
							cnt.Observe(rn)
						}
						for i := r.Intn(k + 1); i > 0; i-- {
							cnt.Complete(rn)
						}
					}
					want := refRegionLoad(cnt)
					nonEmpty := cnt.RegionLoadInto(vec)
					if nonEmpty != (len(want) > 0) {
						t.Fatalf("RegionLoadInto reports load %v, reference %v", nonEmpty, want)
					}
					for i, rn := range regions {
						if math.Float64bits(vec[i]) != math.Float64bits(want[rn]) {
							t.Fatalf("RegionLoadInto[%s] = %v, reference %v", rn, vec[i], want[rn])
						}
					}
					checkDense(t, c, cl, want, vec)

					// An override load, as Figure 14 injects.
					override := map[string]float64{}
					for _, rn := range regions {
						switch r.Intn(5) {
						case 0: // missing
						case 1:
							override[rn] = 0
						case 2:
							override[rn] = -r.Float64()
						default:
							override[rn] = r.Float64() * 50
						}
					}
					g.LoadVec(override, vec)
					checkDense(t, c, cl, override, vec)
				}
			}
		})
	}
}

// TestDenseKernelsZeroAllocs: the three kernels the control tick runs
// allocate nothing.
func TestDenseKernelsZeroAllocs(t *testing.T) {
	spec := app.SocialNetwork()
	g := BuildGraph(spec)
	cnt := NewCounter(g)
	cnt.Observe("compose")
	cnt.Observe("home-timeline")
	c := NewCalculator(g)
	cl := NewClassifier(c)
	vec := make([]float64, g.NumRegions())
	mcf := make([]float64, spec.NumServices())
	lv := make([]Criticality, spec.NumServices())
	allocs := testing.AllocsPerRun(200, func() {
		cnt.RegionLoadInto(vec)
		c.MCFVec(vec, cluster.FreqMax, mcf)
		cl.ClassifyVec(vec, lv)
	})
	if allocs != 0 {
		t.Fatalf("RegionLoadInto+MCFVec+ClassifyVec allocated %.3f objects/op, want 0", allocs)
	}
}
