package orchestrator

import (
	"fmt"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
)

// This file extends the orchestrator with horizontal replica scaling and
// failure injection. The paper's §2.1 motivates both: microservices let
// the system "conveniently dispatch computation resources according to
// the real-time demand", and "even if a failure occurs, a microservice
// based application can continue running with graceful degradation".

// Scale adjusts service to exactly n active-or-starting replicas spread
// round-robin across nodes. Growth creates containers (activating after
// StartupDelay); shrink removes the newest replicas first. n must be >= 1
// and nodes non-empty when growing.
func (o *Orchestrator) Scale(service string, n int, nodes []*cluster.Server) {
	if n < 1 {
		panic(fmt.Sprintf("orchestrator: Scale %q to %d replicas", service, n))
	}
	var live []*Container
	for _, c := range o.Instances(service) {
		if !c.stopping {
			live = append(live, c)
		}
	}
	if len(live) != n {
		o.Rec.Emit(o.eng.Now(), obs.Scale{
			Service: service, From: len(live), To: n,
			Cause: obs.Cause{Signal: "replica-target", Value: float64(n), Bound: float64(len(live))},
		})
	}
	switch {
	case len(live) < n:
		if len(nodes) == 0 {
			panic(fmt.Sprintf("orchestrator: Scale %q up with no candidate nodes", service))
		}
		// Prefer nodes hosting the fewest replicas of this service.
		count := map[string]int{}
		for _, c := range live {
			count[c.Node.Name()]++
		}
		for i := len(live); i < n; i++ {
			best := nodes[0]
			for _, cand := range nodes[1:] {
				if count[cand.Name()] < count[best.Name()] {
					best = cand
				}
			}
			count[best.Name()]++
			o.Place(service, best, false)
		}
	case len(live) > n:
		for _, c := range live[n:] {
			o.Remove(c)
		}
	}
}

// Replicas returns the number of non-stopping instances of service.
func (o *Orchestrator) Replicas(service string) int {
	n := 0
	for _, c := range o.Instances(service) {
		if !c.stopping {
			n++
		}
	}
	return n
}

// FailurePolicy controls how crashed containers are handled.
type FailurePolicy struct {
	// AutoRestart recreates a crashed container on its node.
	AutoRestart bool
	// RestartDelay is how long the restart takes before the replacement
	// begins its normal startup (detection + scheduling latency).
	RestartDelay time.Duration
}

// SetFailurePolicy configures crash handling. The default (zero) policy
// does not restart.
func (o *Orchestrator) SetFailurePolicy(p FailurePolicy) { o.failurePolicy = p }

// Crash kills a container abruptly: it stops receiving traffic at once
// and is removed. Under an AutoRestart policy a replacement is created on
// the same node after RestartDelay (plus the usual startup time). Crashing
// an already-removed container is a no-op.
func (o *Orchestrator) Crash(c *Container) {
	if _, live := o.containers[c.ID]; !live {
		return
	}
	o.crashes++
	node := c.Node
	service := c.Service
	o.Remove(c)
	o.Rec.Emit(o.eng.Now(), obs.Crash{Service: service, Node: node.Name()})
	if o.failurePolicy.AutoRestart {
		restart := func() {
			o.Place(service, node, false)
			o.Rec.Emit(o.eng.Now(), obs.Restart{Service: service, Node: node.Name()})
		}
		if o.failurePolicy.RestartDelay > 0 {
			o.eng.Schedule(o.failurePolicy.RestartDelay, restart)
		} else {
			restart()
		}
	}
}

// CrashOn crashes one container of service on the named node, if any, and
// reports whether one was found.
func (o *Orchestrator) CrashOn(service, node string) bool {
	for _, c := range o.Instances(service) {
		if !c.stopping && c.Node.Name() == node {
			o.Crash(c)
			return true
		}
	}
	return false
}

// Crashes returns how many containers have been crashed.
func (o *Orchestrator) Crashes() uint64 { return o.crashes }
