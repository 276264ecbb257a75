package cluster

import (
	"fmt"

	"servicefridge/internal/sim"
)

// Cluster is a named set of servers. Lookup is by name; iteration order is
// stable (insertion order) so that controllers behave deterministically.
type Cluster struct {
	eng     *sim.Engine
	servers []*Server
	byName  map[string]*Server
}

// New creates an empty cluster bound to the engine.
func New(eng *sim.Engine) *Cluster {
	return &Cluster{eng: eng, byName: make(map[string]*Server)}
}

// Engine returns the simulation engine the cluster runs on.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// AddServer creates and registers a server. Names must be unique.
func (c *Cluster) AddServer(name string, role Role, cores int) *Server {
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate server name %q", name))
	}
	s := NewServer(c.eng, name, role, cores)
	s.index = len(c.servers)
	c.servers = append(c.servers, s)
	c.byName[name] = s
	return s
}

// Server returns the server with the given name, or nil.
func (c *Cluster) Server(name string) *Server { return c.byName[name] }

// Servers returns all servers in insertion order. The caller must not
// mutate the returned slice.
func (c *Cluster) Servers() []*Server { return c.servers }

// Workers returns the servers that can host microservice containers (all
// roles host containers in the paper's testbed, but the manager is listed
// last so schedulers prefer workers).
func (c *Cluster) Workers() []*Server {
	out := make([]*Server, 0, len(c.servers))
	for _, s := range c.servers {
		if s.Role() != RoleManager {
			out = append(out, s)
		}
	}
	for _, s := range c.servers {
		if s.Role() == RoleManager {
			out = append(out, s)
		}
	}
	return out
}

// Size returns the number of servers.
func (c *Cluster) Size() int { return len(c.servers) }

// SetAllFreq applies one frequency to every server.
func (c *Cluster) SetAllFreq(f GHz) {
	for _, s := range c.servers {
		s.SetFreq(f)
	}
}

// SetAllMaxFreq installs one frequency clamp on every server (max <= 0
// removes all clamps). Server iteration order is construction order, so
// the cascade of induced DVFS transitions is deterministic.
func (c *Cluster) SetAllMaxFreq(max GHz) {
	for _, s := range c.servers {
		s.SetMaxFreq(max)
	}
}

// DefaultTestbed builds the five-node cluster of Table 2: one manager
// (Server A), one power worker (Server B) and three normal workers
// (C1..C3), each with 6 cores at 2.4 GHz.
//
//	Node      Role           Running MS
//	serverA   manager        Zipkin/UI + spillover microservices
//	serverB   power-worker   the observed microservice
//	serverC1..C3 normal      the remaining microservices
func DefaultTestbed(eng *sim.Engine) *Cluster {
	c := New(eng)
	c.AddServer("serverA", RoleManager, 6)
	c.AddServer("serverB", RolePowerWorker, 6)
	c.AddServer("serverC1", RoleNormalWorker, 6)
	c.AddServer("serverC2", RoleNormalWorker, 6)
	c.AddServer("serverC3", RoleNormalWorker, 6)
	return c
}
