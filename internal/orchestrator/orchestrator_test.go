package orchestrator

import (
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/sim"
)

func testCluster() (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine(1)
	return eng, cluster.DefaultTestbed(eng)
}

func TestDeployRoundRobinCyclesWorkers(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	services := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	o.DeployRoundRobin(services)
	// Workers order: B, C1, C2, C3, then manager A; 6 services wrap once.
	wantNode := []string{"serverB", "serverC1", "serverC2", "serverC3", "serverA", "serverB"}
	for i, svc := range services {
		nodes := o.NodesOf(svc)
		if len(nodes) != 1 || nodes[0].Name() != wantNode[i] {
			t.Fatalf("%s on %v, want %s", svc, nodes, wantNode[i])
		}
	}
	if got := o.ServicesOn(cl.Server("serverB")); len(got) != 2 {
		t.Fatalf("serverB hosts %v, want 2 services", got)
	}
}

func TestHostForRoundRobinsAcrossInstances(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC2"), true)
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		seen[o.HostFor("svc").Name()]++
	}
	if seen["serverC1"] != 5 || seen["serverC2"] != 5 {
		t.Fatalf("load balance skewed: %v", seen)
	}
}

func TestHostForUnknownService(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	if o.HostFor("ghost") != nil {
		t.Fatal("unknown service should have nil host")
	}
}

func TestPinnedDeployment(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	c := o.DeployPinned("observed", "serverB")
	if !c.Active() || c.Node.Name() != "serverB" {
		t.Fatal("pinned container wrong")
	}
	if o.HostFor("observed").Name() != "serverB" {
		t.Fatal("pinned service should resolve to serverB")
	}
}

func TestStartupDelayGatesTraffic(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	c2 := o.Place("svc", cl.Server("serverC2"), false)
	if c2.Active() {
		t.Fatal("new container active before startup delay")
	}
	// Until activation every call goes to C1.
	for i := 0; i < 4; i++ {
		if o.HostFor("svc").Name() != "serverC1" {
			t.Fatal("starting container received traffic")
		}
	}
	eng.RunFor(time.Second)
	if !c2.Active() {
		t.Fatal("container did not activate after delay")
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		seen[o.HostFor("svc").Name()] = true
	}
	if !seen["serverC2"] {
		t.Fatal("activated container gets no traffic")
	}
}

func TestMoveServiceStartNewThenKillOld(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC2")})

	// During migration, traffic still flows to the old node.
	if o.HostFor("svc").Name() != "serverC1" {
		t.Fatal("traffic dropped during migration")
	}
	if len(o.Instances("svc")) != 2 {
		t.Fatalf("instances during migration = %d, want 2", len(o.Instances("svc")))
	}
	eng.RunFor(time.Second)
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0].Name() != "serverC2" {
		t.Fatalf("after migration on %v, want serverC2", nodes)
	}
	if len(o.Instances("svc")) != 1 {
		t.Fatal("old instance not terminated")
	}
	if o.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", o.Migrations())
	}
}

func TestMoveServiceNoopWhenAlreadyPlaced(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC1")})
	if o.Migrations() != 0 {
		t.Fatal("no-op move counted as migration")
	}
	if len(o.Instances("svc")) != 1 {
		t.Fatal("no-op move changed instances")
	}
}

func TestMoveServiceImmediateWhenZeroDelay(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.StartupDelay = 0
	o.Place("svc", cl.Server("serverC1"), true)
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC2")})
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0].Name() != "serverC2" {
		t.Fatalf("immediate move landed on %v", nodes)
	}
}

func TestMoveServiceExpandAndShrink(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	// Expand to two nodes.
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC1"), cl.Server("serverC2")})
	eng.RunFor(time.Second)
	if len(o.NodesOf("svc")) != 2 {
		t.Fatalf("expand failed: %d nodes", len(o.NodesOf("svc")))
	}
	// Shrink back to one.
	o.MoveService("svc", []*cluster.Server{cl.Server("serverC2")})
	eng.RunFor(time.Second)
	nodes := o.NodesOf("svc")
	if len(nodes) != 1 || nodes[0].Name() != "serverC2" {
		t.Fatalf("shrink failed: %v", nodes)
	}
}

func TestMoveServiceEmptyTargetsPanics(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.MoveService("svc", nil)
}

func TestRemoveIdempotent(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	c := o.Place("svc", cl.Server("serverC1"), true)
	o.Remove(c)
	o.Remove(c)
	if o.Stopped() != 1 {
		t.Fatalf("stopped = %d, want 1", o.Stopped())
	}
	if len(o.Instances("svc")) != 0 {
		t.Fatal("instance list not emptied")
	}
}

func TestLifecycleCounters(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.Place("a", cl.Server("serverC1"), true)
	o.Place("b", cl.Server("serverC2"), true)
	o.MoveService("a", []*cluster.Server{cl.Server("serverC3")})
	eng.RunFor(time.Second)
	if o.Started() != 3 || o.Stopped() != 1 {
		t.Fatalf("started/stopped = %d/%d, want 3/1", o.Started(), o.Stopped())
	}
	if got := o.Services(); len(got) != 2 {
		t.Fatalf("services = %v", got)
	}
}

// TestHostForZeroAllocs: the by-name placement edge and the executor's
// route handle share one per-service state, and neither allocates.
func TestHostForZeroAllocs(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC2"), true)
	route := o.Route("svc")
	allocs := testing.AllocsPerRun(1000, func() {
		o.HostFor("svc")
		route()
	})
	if allocs != 0 {
		t.Fatalf("HostFor+route allocated %.3f objects/op, want 0", allocs)
	}
	// The handle and the name edge advance the same round-robin cursor.
	if a, b := o.HostFor("svc"), route(); a == b {
		t.Fatalf("HostFor and Route did not share the cursor: both chose %s", a.Name())
	}
}

// TestRouteSurvivesRestore: a placement handle bound before a snapshot
// keeps working after Restore, which rewinds its service's instances and
// round-robin cursor in place; a service first placed after the snapshot
// rewinds to having no instance.
func TestRouteSurvivesRestore(t *testing.T) {
	_, cl := testCluster()
	o := New(cl)
	o.Place("svc", cl.Server("serverC1"), true)
	o.Place("svc", cl.Server("serverC2"), true)
	route := o.Route("svc")
	if got := route().Name(); got != "serverC1" {
		t.Fatalf("first call on %s, want serverC1", got)
	}
	snap := o.Snapshot()
	route()
	o.Place("svc", cl.Server("serverC3"), true)
	o.Place("late", cl.Server("serverC1"), true)

	o.Restore(snap)
	for _, want := range []string{"serverC2", "serverC1", "serverC2"} {
		if got := route().Name(); got != want {
			t.Fatalf("restored route chose %s, want %s", got, want)
		}
	}
	if o.HostFor("late") != nil || len(o.Instances("late")) != 0 {
		t.Fatal("service placed after the snapshot survived the restore")
	}
}
