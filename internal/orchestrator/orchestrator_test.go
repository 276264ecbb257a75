package orchestrator

import (
	"fmt"
	"slices"
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

// TestHostMatchesModuloRoundRobin pins the compare-wrapped scan of
// pool.host to the modulo form it replaced, (rr+k)%n, including a pool
// shrunk below its cursor by Remove and pools with inactive instances.
func TestHostMatchesModuloRoundRobin(t *testing.T) {
	ref := func(list []*Container, rr int) (*cluster.Server, int) {
		n := len(list)
		if n == 0 {
			return nil, rr
		}
		for k := 0; k < n; k++ {
			if c := list[(rr+k)%n]; c.active {
				return c.Node, (rr + k + 1) % n
			}
		}
		return list[0].Node, rr
	}
	check := func(label string, p *pool, calls int) {
		t.Helper()
		rr := p.rr
		for k := 0; k < calls; k++ {
			want, wantRR := ref(p.list, rr)
			if got := p.host(); got != want || p.rr != wantRR {
				t.Fatalf("%s call %d: host %v cursor %d, want %v cursor %d", label, k, got, p.rr, want, wantRR)
			}
			rr = wantRR
		}
	}

	_, cl := testCluster()
	o := New(cl)
	var placed []*Container
	for _, n := range cl.Workers() {
		placed = append(placed, o.Place("svc", n, true))
	}
	p := o.pools["svc"]
	for k := 0; k < len(placed)-1; k++ {
		p.host()
	}
	o.Remove(placed[0])
	o.Remove(placed[2])
	o.Remove(placed[3])
	if p.rr < len(p.list) {
		t.Fatalf("cursor %d is inside the shrunk pool of %d", p.rr, len(p.list))
	}
	check("shrunk", p, 7)

	rng := sim.NewRNG(1)
	nodes := cl.Workers()
	for trial := 0; trial < 200; trial++ {
		q := &pool{}
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			q.list = append(q.list, &Container{Node: nodes[i%len(nodes)], active: rng.Intn(3) > 0})
		}
		q.rr = rng.Intn(3 * len(q.list))
		check(fmt.Sprintf("trial %d", trial), q, 2*len(q.list)+1)
	}
	if (&pool{}).host() != nil {
		t.Fatal("an empty pool returned a host")
	}
}

// TestActiveOnMatchesServicesOn: ActiveOn is the membership test of
// ServicesOn at every stage of a migration — starting replicas do not
// count, stopping ones still serving do.
func TestActiveOnMatchesServicesOn(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	o.DeployRoundRobin([]string{"s1", "s2", "s3", "s4", "s5", "s6"})
	check := func(stage string) {
		t.Helper()
		for _, n := range cl.Servers() {
			on := o.ServicesOn(n)
			for _, svc := range []string{"s1", "s2", "s3", "s4", "s5", "s6", "ghost"} {
				want := false
				for _, s := range on {
					want = want || s == svc
				}
				if got := o.ActiveOn(svc, n); got != want {
					t.Fatalf("%s: ActiveOn(%s, %s) = %v, ServicesOn lists %v", stage, svc, n.Name(), got, on)
				}
			}
		}
	}
	check("deployed")
	o.MoveService("s1", []*cluster.Server{cl.Server("serverC3")})
	o.MoveService("s2", []*cluster.Server{cl.Server("serverC1"), cl.Server("serverC3")})
	if o.ActiveOn("s1", cl.Server("serverC3")) {
		t.Fatal("a starting replica counts as active")
	}
	if !o.ActiveOn("s1", cl.Server("serverB")) {
		t.Fatal("a stopping replica still serving does not count as active")
	}
	check("migrating")
	eng.RunFor(time.Second)
	check("migrated")
}

// TestAppendNodesOf: NodesOf's appending form lists the same nodes after
// whatever dst holds, dedups within what it appends, and allocates
// nothing into a buffer with room.
func TestAppendNodesOf(t *testing.T) {
	eng, cl := testCluster()
	o := New(cl)
	c1, c2 := cl.Server("serverC1"), cl.Server("serverC2")
	o.Place("svc", c1, true)
	o.Place("svc", c2, true)
	o.Place("svc", c1, true)  // a second replica on C1
	o.Place("svc", c2, false) // starting: not listed
	o.Place("other", cl.Server("serverB"), true)
	eng.RunFor(time.Millisecond)
	buf := o.AppendNodesOf(make([]*cluster.Server, 0, 8), "other")
	buf = o.AppendNodesOf(buf, "svc")
	want := []*cluster.Server{cl.Server("serverB"), c1, c2}
	if !slices.Equal(buf, want) {
		t.Fatalf("AppendNodesOf = %v, want %v", buf, want)
	}
	if got := o.NodesOf("svc"); !slices.Equal(got, want[1:]) {
		t.Fatalf("NodesOf = %v, want %v", got, want[1:])
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = o.AppendNodesOf(buf[:0], "svc")
	})
	if allocs != 0 {
		t.Fatalf("AppendNodesOf into a reused buffer allocated %.3f objects/op, want 0", allocs)
	}
}
