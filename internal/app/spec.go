// Package app models the microservice application under study: the
// two-layer topology of Figure 1 (an API layer fronting a layer of
// loosely-coupled function/database services), microservice regions
// (Figure 2), and the per-service profiles — execution time, call times per
// region, and QoS-power sensitivity — that the paper's offline analysis
// extracts (Table 4, Figures 3-5).
//
// The concrete application is TrainTicket, the railway ticketing benchmark
// the paper deploys (42 microservices, 24 business-logic). Since the Java
// implementation cannot run here, the application is reproduced as a
// profile-driven model: each region is a sequence of call stages replayed
// against the simulated cluster, with service demands drawn from the
// profiled distributions. See trainticket.go for the data.
package app

import (
	"fmt"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

// Kind classifies a microservice within the two-layer architecture.
type Kind int

const (
	// KindAPI is an API-layer (upper-level) service: the portal vertex
	// set V_A of the bipartite graph.
	KindAPI Kind = iota
	// KindFunction is a service-layer business-logic service: the vertex
	// set V_F.
	KindFunction
	// KindDatabase is a data service bound to one function service. In
	// the paper's graph model the (function, database) pair forms a
	// single V_F vertex; database services are therefore metadata here
	// and never called directly by regions.
	KindDatabase
	// KindInfra is supporting infrastructure (tracing UI, gateway, ...)
	// that hosts no business logic.
	KindInfra
)

func (k Kind) String() string {
	switch k {
	case KindAPI:
		return "api"
	case KindFunction:
		return "function"
	case KindDatabase:
		return "database"
	case KindInfra:
		return "infra"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Microservice is the static profile of one service.
type Microservice struct {
	Name string
	Kind Kind
	// CPUShare in [0,1] drives the QoS-power variance coefficient β:
	// the fraction of the service's work that stretches inversely with
	// CPU frequency. Figure 5 distinguishes power-sensitive services
	// (price, seat — high share) from insensitive ones (route — low).
	CPUShare float64
	// Jitter is the relative standard deviation of a single invocation's
	// execution time; Figure 3 shows tight per-service clusters, so this
	// is small.
	Jitter float64
	// DB names the paired database service, if any.
	DB string

	// id is the service's dense index in its spec's registration order,
	// assigned by AddService.
	id int
	// slowdown caches the β curve, built by AddService, so the
	// per-invocation hot path never re-clamps CPUShare.
	slowdown cluster.Slowdown
}

// Slowdown returns the service's β curve. A profile built outside a Spec
// has no cached curve and gets one made from its CPUShare.
func (m *Microservice) Slowdown() cluster.Slowdown {
	if m.slowdown == (cluster.Slowdown{}) {
		return cluster.LinearSlowdown(m.CPUShare)
	}
	return m.slowdown
}

// ID returns the service's dense index in its spec's registration order.
// Request-path state is indexed by it instead of by name. It is meaningful
// only for profiles obtained from a Spec.
func (m *Microservice) ID() int { return m.id }

// Beta returns the execution-time inflation factor at frequency f relative
// to FreqMax — the variance coefficient β of Equation (2).
func (m *Microservice) Beta(f cluster.GHz) float64 {
	return m.Slowdown().At(f)
}

// Call is one edge bundle of the bipartite graph: a region invoking a
// function service Times times per request, each invocation demanding Exec
// on average at FreqMax.
type Call struct {
	// Service is the callee (a KindFunction service).
	Service string
	// Times is the per-request call count (CT in Table 4).
	Times int
	// Exec is the mean per-invocation execution time at FreqMax (ET in
	// Table 4). The same service may have different Exec in different
	// regions — the request types differ.
	Exec time.Duration
	// Concurrency bounds how many of the Times invocations are in flight
	// at once. The API layer iterates over records, so most call fans
	// are sequential (1, the default); some record batches overlap.
	Concurrency int

	// callee is the resolved Service profile, set by Spec.AddRegion so
	// the executor never looks a callee up by name; exec is the
	// invocation's execution-time distribution, precomputed there from
	// Exec and the callee's Jitter.
	callee *Microservice
	exec   sim.LogNormalDist
}

// Weight is the per-request completion time contributed by this edge at
// FreqMax: execution time multiplied by call times (W in Table 4 /
// Equation (2), before the β coefficient).
func (c Call) Weight() time.Duration { return time.Duration(c.Times) * c.Exec }

// Stage is a set of calls issued together; a request proceeds to the next
// stage only when every call of the current stage has completed.
type Stage []Call

// Region is one microservice region (Figure 2): an API vertex plus the
// function services its requests fan out to.
type Region struct {
	// Name identifies the region ("advanced-search", "basic-ticketing").
	Name string
	// API is the API-layer service fronting the region.
	API string
	// APIExec is the API layer's own per-request work.
	APIExec time.Duration
	// Stages execute sequentially per request.
	Stages []Stage

	// Resolved by Spec.AddRegion: the API service's profile, its job's
	// execution-time distribution, and the distinct function services
	// the region calls, in first-call order, as dense service IDs and as
	// names.
	api          *Microservice
	apiExec      sim.LogNormalDist
	serviceIDs   []int
	serviceNames []string
}

// Calls flattens the region's stages into a single list.
func (r *Region) Calls() []Call {
	var out []Call
	for _, st := range r.Stages {
		out = append(out, st...)
	}
	return out
}

// CallTo returns the aggregate call edge from this region to service:
// summed call times and the call-time-weighted mean execution time.
// ok is false when the region never invokes the service.
func (r *Region) CallTo(service string) (c Call, ok bool) {
	var times int
	var weight time.Duration
	conc := 0
	for _, cl := range r.Calls() {
		if cl.Service != service {
			continue
		}
		times += cl.Times
		weight += cl.Weight()
		if cl.Concurrency > conc {
			conc = cl.Concurrency
		}
	}
	if times == 0 {
		return Call{}, false
	}
	return Call{
		Service:     service,
		Times:       times,
		Exec:        weight / time.Duration(times),
		Concurrency: conc,
	}, true
}

// Weight returns the region's total per-request completion time demand for
// service at FreqMax (0 if not called).
func (r *Region) Weight(service string) time.Duration {
	c, ok := r.CallTo(service)
	if !ok {
		return 0
	}
	return c.Weight()
}

// ServiceNames returns the distinct function services the region calls, in
// first-call order. The slice is the caller's to keep.
func (r *Region) ServiceNames() []string { return append([]string(nil), r.serviceNames...) }

// ServiceIDs returns the dense IDs of the services ServiceNames lists, in
// the same order. The slice is a read-only view, shared by every caller.
func (r *Region) ServiceIDs() []int { return r.serviceIDs }

// Spec is a complete application: services plus regions.
type Spec struct {
	services     map[string]*Microservice
	serviceOrder []string
	byID         []*Microservice
	regions      map[string]*Region
	regionOrder  []string
}

// NewSpec returns an empty application spec.
func NewSpec() *Spec {
	return &Spec{
		services: make(map[string]*Microservice),
		regions:  make(map[string]*Region),
	}
}

// AddService registers a microservice profile. Duplicate names panic: the
// specs are program data, so a duplicate is a bug, not an input error.
func (s *Spec) AddService(m Microservice) *Microservice {
	if _, dup := s.services[m.Name]; dup {
		panic(fmt.Sprintf("app: duplicate service %q", m.Name))
	}
	if m.CPUShare < 0 || m.CPUShare > 1 {
		panic(fmt.Sprintf("app: service %q CPUShare %v outside [0,1]", m.Name, m.CPUShare))
	}
	cp := m
	cp.id = len(s.byID)
	cp.slowdown = cluster.LinearSlowdown(cp.CPUShare)
	s.services[m.Name] = &cp
	s.serviceOrder = append(s.serviceOrder, m.Name)
	s.byID = append(s.byID, &cp)
	return &cp
}

// AddRegion registers a region. The API service and every callee must
// already be registered, callees must be function services, and call
// parameters must be positive. The spec keeps its own copy of the stages,
// with every call resolved to its callee's profile.
func (s *Spec) AddRegion(r Region) *Region {
	if _, dup := s.regions[r.Name]; dup {
		panic(fmt.Sprintf("app: duplicate region %q", r.Name))
	}
	api, ok := s.services[r.API]
	if !ok {
		panic(fmt.Sprintf("app: region %q fronts unknown API service %q", r.Name, r.API))
	}
	if api.Kind != KindAPI {
		panic(fmt.Sprintf("app: region %q API %q is %v, want api", r.Name, r.API, api.Kind))
	}
	cp := r
	cp.api, cp.serviceIDs, cp.serviceNames = api, nil, nil
	cp.apiExec = execDist(r.APIExec, api)
	cp.Stages = make([]Stage, len(r.Stages))
	seen := make([]bool, len(s.byID))
	for i, st := range r.Stages {
		cp.Stages[i] = append(Stage(nil), st...)
		for j := range cp.Stages[i] {
			c := &cp.Stages[i][j]
			callee, ok := s.services[c.Service]
			if !ok {
				panic(fmt.Sprintf("app: region %q calls unknown service %q", r.Name, c.Service))
			}
			if callee.Kind != KindFunction {
				panic(fmt.Sprintf("app: region %q calls %q of kind %v, want function", r.Name, c.Service, callee.Kind))
			}
			if c.Times <= 0 || c.Exec <= 0 {
				panic(fmt.Sprintf("app: region %q call to %q has non-positive times/exec", r.Name, c.Service))
			}
			c.callee = callee
			c.exec = execDist(c.Exec, callee)
			if id := callee.id; !seen[id] {
				seen[id] = true
				cp.serviceIDs = append(cp.serviceIDs, id)
				cp.serviceNames = append(cp.serviceNames, c.Service)
			}
		}
	}
	s.regions[r.Name] = &cp
	s.regionOrder = append(s.regionOrder, r.Name)
	return &cp
}

// execDist is the distribution of one invocation of ms with mean execution
// time mean: log-normal with standard deviation ms.Jitter × mean.
func execDist(mean time.Duration, ms *Microservice) sim.LogNormalDist {
	return sim.NewLogNormal(float64(mean), ms.Jitter*float64(mean))
}

// Service returns the profile for name, or nil.
func (s *Spec) Service(name string) *Microservice { return s.services[name] }

// ServiceByID returns the profile with dense ID id (see Microservice.ID).
func (s *Spec) ServiceByID(id int) *Microservice { return s.byID[id] }

// Region returns the region named name, or nil.
func (s *Spec) Region(name string) *Region { return s.regions[name] }

// ServiceNames returns all service names in registration order.
func (s *Spec) ServiceNames() []string { return append([]string(nil), s.serviceOrder...) }

// RegionNames returns all region names in registration order.
func (s *Spec) RegionNames() []string { return append([]string(nil), s.regionOrder...) }

// FunctionServices returns the function-layer services in registration
// order.
func (s *Spec) FunctionServices() []string {
	var out []string
	for _, n := range s.serviceOrder {
		if s.services[n].Kind == KindFunction {
			out = append(out, n)
		}
	}
	return out
}

// PlacedServices returns every service that needs a container: API,
// function and infra services (database services ride with their function
// service's container in this model).
func (s *Spec) PlacedServices() []string {
	var out []string
	for _, n := range s.serviceOrder {
		switch s.services[n].Kind {
		case KindAPI, KindFunction, KindInfra:
			out = append(out, n)
		}
	}
	return out
}

// NumServices returns the total registered service count.
func (s *Spec) NumServices() int { return len(s.serviceOrder) }
