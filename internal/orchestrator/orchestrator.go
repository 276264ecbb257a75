// Package orchestrator is the container-orchestration substrate standing in
// for docker swarm in the paper's testbed (§3.1): it deploys one container
// per microservice, schedules containers across server nodes with swarm's
// default round-robin policy, load-balances calls across a service's
// instances, and supports the fast, lightweight migration strategy
// ServiceFridge relies on — create new instances on the target nodes, then
// terminate the old ones (§5.1, feature 3).
package orchestrator

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// Container is one deployed instance of a microservice.
type Container struct {
	ID      int
	Service string
	Node    *cluster.Server
	// active reports whether the container has finished starting up and
	// receives traffic.
	active bool
	// stopping marks a container scheduled for termination once its
	// replacement activates.
	stopping bool
}

// Active reports whether the container is serving traffic.
func (c *Container) Active() bool { return c.active }

// pool is one service's placement state: its containers in creation order
// and the round-robin cursor. A pool, once created, stays the service's
// pool forever (Restore resets it in place), so placement handles bound to
// it stay valid across snapshots.
type pool struct {
	list []*Container
	rr   int
}

// host round-robins calls across the pool's active instances (swarm's mesh
// load balancing). Starting-up instances receive no traffic; if nothing is
// active yet, the oldest stopping/starting instance's node is used so
// traffic never black-holes during migration. The cursor can exceed the
// list after a Remove, so it is reduced once; the scan then wraps with a
// compare, keeping a division off the per-call path.
func (p *pool) host() *cluster.Server {
	n := len(p.list)
	if n == 0 {
		return nil
	}
	i := p.rr
	if i >= n {
		i %= n
	}
	for k := 0; k < n; k++ {
		c := p.list[i]
		if i++; i == n {
			i = 0
		}
		if c.active {
			p.rr = i
			return c.Node
		}
	}
	return p.list[0].Node
}

// Orchestrator tracks container placement for one cluster and implements
// app.Placement (Route) for the request executor.
type Orchestrator struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	// StartupDelay is how long a new container takes from creation to
	// serving traffic. Container start is fast (the paper's motivation
	// for start-new-then-kill-old migration); default 500ms.
	StartupDelay time.Duration
	// Rec, when non-nil, receives container lifecycle events (crash,
	// restart, scale). Nil disables recording.
	Rec *obs.Recorder

	nextID     int
	containers map[int]*Container
	pools      map[string]*pool

	migrations uint64
	started    uint64
	stopped    uint64
	crashes    uint64

	failurePolicy FailurePolicy
}

// New returns an orchestrator for cl.
func New(cl *cluster.Cluster) *Orchestrator {
	return &Orchestrator{
		eng:          cl.Engine(),
		cl:           cl,
		StartupDelay: 500 * time.Millisecond,
		containers:   make(map[int]*Container),
		pools:        make(map[string]*pool),
	}
}

// Migrations returns the number of MoveService operations performed.
func (o *Orchestrator) Migrations() uint64 { return o.migrations }

// Started and Stopped return cumulative container lifecycle counts.
func (o *Orchestrator) Started() uint64 { return o.started }

// Stopped returns the number of containers terminated.
func (o *Orchestrator) Stopped() uint64 { return o.stopped }

// Place creates a container for service on node. If immediate is true the
// container serves traffic at once (initial deployment); otherwise it
// activates after StartupDelay.
func (o *Orchestrator) Place(service string, node *cluster.Server, immediate bool) *Container {
	if node == nil {
		panic(fmt.Sprintf("orchestrator: Place %q on nil node", service))
	}
	o.nextID++
	c := &Container{ID: o.nextID, Service: service, Node: node, active: immediate}
	o.containers[c.ID] = c
	p := o.pool(service)
	p.list = append(p.list, c)
	o.started++
	if !immediate {
		delay := o.StartupDelay
		o.eng.Schedule(delay, func() {
			if _, live := o.containers[c.ID]; live {
				c.active = true
			}
		})
	}
	return c
}

// Remove terminates a container immediately.
func (o *Orchestrator) Remove(c *Container) {
	if _, live := o.containers[c.ID]; !live {
		return
	}
	delete(o.containers, c.ID)
	p := o.pools[c.Service]
	for i, x := range p.list {
		if x.ID == c.ID {
			p.list = append(p.list[:i], p.list[i+1:]...)
			break
		}
	}
	o.stopped++
}

// DeployRoundRobin places one container per service, cycling through the
// cluster's worker nodes in order — docker swarm's default scheduling
// (§3.1: "a fair docker scheduling algorithm (round-robin)"). Containers
// are immediately active (initial deployment).
func (o *Orchestrator) DeployRoundRobin(services []string) {
	o.DeployRoundRobinOver(services, o.cl.Workers())
}

// DeployRoundRobinOver is DeployRoundRobin restricted to the given nodes —
// used to keep the power worker exclusive to an observed microservice
// (§3.1: "We deploy the observed microservice on the power worker apart
// from others").
func (o *Orchestrator) DeployRoundRobinOver(services []string, nodes []*cluster.Server) {
	if len(nodes) == 0 {
		panic("orchestrator: no nodes to deploy on")
	}
	for i, svc := range services {
		o.Place(svc, nodes[i%len(nodes)], true)
	}
}

// DeployPinned places one immediately-active container for each service on
// the named node — the paper's §3.4 isolation methodology (the observed
// microservice alone on Server B).
func (o *Orchestrator) DeployPinned(service, node string) *Container {
	n := o.cl.Server(node)
	if n == nil {
		panic(fmt.Sprintf("orchestrator: unknown node %q", node))
	}
	return o.Place(service, n, true)
}

// Instances returns the containers of service (active and starting), in
// creation order.
func (o *Orchestrator) Instances(service string) []*Container {
	if p := o.pools[service]; p != nil {
		return p.list
	}
	return nil
}

// pool returns service's placement state, creating it on first use.
func (o *Orchestrator) pool(service string) *pool {
	p := o.pools[service]
	if p == nil {
		p = &pool{}
		o.pools[service] = p
	}
	return p
}

// NodesOf returns the distinct nodes hosting active instances of service,
// in the creation order of each node's first active instance.
func (o *Orchestrator) NodesOf(service string) []*cluster.Server {
	return o.AppendNodesOf(nil, service)
}

// AppendNodesOf is NodesOf appending to dst, so a caller that reuses one
// buffer lists placements without allocating. Nodes are deduplicated by
// pointer, which is deduplication by name: server names are unique.
func (o *Orchestrator) AppendNodesOf(dst []*cluster.Server, service string) []*cluster.Server {
	start := len(dst)
	for _, c := range o.Instances(service) {
		if c.active && !slices.Contains(dst[start:], c.Node) {
			dst = append(dst, c.Node)
		}
	}
	return dst
}

// ActiveOn reports whether service has an active instance on node — the
// membership test of ServicesOn, without building the list.
func (o *Orchestrator) ActiveOn(service string, node *cluster.Server) bool {
	for _, c := range o.Instances(service) {
		if c.active && c.Node == node {
			return true
		}
	}
	return false
}

// ServicesOn returns the distinct services with active instances on node,
// sorted for stable iteration.
func (o *Orchestrator) ServicesOn(node *cluster.Server) []string {
	seen := map[string]bool{}
	for _, c := range o.containers {
		if c.active && c.Node == node {
			seen[c.Service] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Services returns every service with at least one container, sorted.
func (o *Orchestrator) Services() []string {
	out := make([]string, 0, len(o.pools))
	for s, p := range o.pools {
		if len(p.list) > 0 {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Route implements app.Placement: the returned handle round-robins calls
// across service's active instances, exactly as HostFor does, without
// looking the service up by name again.
func (o *Orchestrator) Route(service string) func() *cluster.Server {
	return o.pool(service).host
}

// HostFor returns the server for the next call to service (see Route), or
// nil if the service has no instance. It is the by-name edge over the same
// placement state the executor's handles use.
func (o *Orchestrator) HostFor(service string) *cluster.Server {
	if p := o.pools[service]; p != nil {
		return p.host()
	}
	return nil
}

// MoveService migrates service so that its active instances end up exactly
// on targets, using start-new-then-kill-old: new containers are created on
// missing targets, and once they activate, instances elsewhere are
// terminated. Calling it with the current placement is a no-op.
func (o *Orchestrator) MoveService(service string, targets []*cluster.Server) {
	if len(targets) == 0 {
		panic(fmt.Sprintf("orchestrator: MoveService %q with no targets", service))
	}
	// The service's instances before any replacement is placed: Place
	// appends to the pool, so this view keeps its length.
	insts := o.Instances(service)
	var toKill []*Container
	for _, c := range insts {
		if !c.stopping && !slices.Contains(targets, c.Node) {
			toKill = append(toKill, c)
		}
	}
	fresh := 0
	for i, n := range targets {
		if !hasLiveOn(insts, n) && !slices.Contains(targets[:i], n) {
			o.Place(service, n, o.StartupDelay == 0)
			fresh++
		}
	}
	if fresh == 0 && len(toKill) == 0 {
		return
	}
	o.migrations++
	for _, c := range toKill {
		c.stopping = true
	}
	kill := func() {
		for _, c := range toKill {
			o.Remove(c)
		}
	}
	if o.StartupDelay == 0 || fresh == 0 {
		kill()
		return
	}
	// Old instances serve until the replacements are up.
	o.eng.Schedule(o.StartupDelay, kill)
}

// hasLiveOn reports whether insts holds a container on node that is not
// being stopped (active or still starting).
func hasLiveOn(insts []*Container, node *cluster.Server) bool {
	for _, c := range insts {
		if !c.stopping && c.Node == node {
			return true
		}
	}
	return false
}
