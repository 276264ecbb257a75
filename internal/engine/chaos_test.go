package engine

import (
	"testing"
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
)

// countEvents tallies a recorder's stream by kind, checking sim-time
// monotonicity along the way.
func countEvents(t *testing.T, rec *obs.Recorder) map[string]int {
	t.Helper()
	counts := map[string]int{}
	var lastAt int64 = -1
	for _, r := range rec.Events() {
		if int64(r.At) < lastAt {
			t.Fatalf("event stream not time-ordered: %v after %v", r.At, lastAt)
		}
		lastAt = int64(r.At)
		counts[r.Kind.String()]++
	}
	return counts
}

// TestChaosContainerCrashUnderFridge injects container crashes mid-run
// while ServiceFridge is actively migrating, and verifies the system
// degrades gracefully: the run completes, no requests are lost mid-flight
// beyond those in the crash window, and the crashed services recover.
func TestChaosContainerCrashUnderFridge(t *testing.T) {
	rec := obs.NewRecorder(0)
	res := Build(quick(Config{Seed: 6, Scheme: ServiceFridge, BudgetFraction: 0.8, Events: rec}))
	res.Orch.SetFailurePolicy(orchestrator.FailurePolicy{
		AutoRestart:  true,
		RestartDelay: 500 * time.Millisecond,
	})
	// Crash a different study service every second.
	victims := []string{"station", "route", "config", "train", "basic"}
	for i, svc := range victims {
		svc := svc
		res.Engine.Schedule(time.Duration(3+i)*time.Second, func() {
			for _, n := range res.Orch.NodesOf(svc) {
				res.Orch.CrashOn(svc, n.Name())
				break
			}
		})
	}
	res.Engine.RunFor(12 * time.Second)
	res.Gen.Stop()
	for _, p := range res.Pools {
		p.Stop()
	}

	if res.Orch.Crashes() == 0 {
		t.Fatal("no crashes were injected")
	}
	if res.Executor.Completed() == 0 {
		t.Fatal("no requests completed under chaos")
	}
	// Every victim must have recovered.
	for _, svc := range victims {
		if res.Orch.Replicas(svc) == 0 {
			t.Errorf("%s never recovered", svc)
		}
	}
	// Requests keep flowing after the crash storm.
	before := res.Executor.Completed()
	res.Engine.RunFor(5 * time.Second)
	if res.Executor.Completed() == before {
		t.Fatal("system wedged after crashes")
	}
	// The event stream mirrors the orchestrator's failure accounting: one
	// Crash event per counted crash, and — with AutoRestart on and the run
	// continuing well past the last injection — one Restart each.
	counts := countEvents(t, rec)
	if got, want := counts["crash"], int(res.Orch.Crashes()); got != want {
		t.Fatalf("%d crash events for %d orchestrator crashes", got, want)
	}
	if got, want := counts["restart"], int(res.Orch.Crashes()); got != want {
		t.Fatalf("%d restart events for %d crashes under AutoRestart", got, want)
	}
}

// TestChaosCrashDuringMigration crashes a container that is mid-migration
// (old instance stopping, new one starting) and checks consistency.
func TestChaosCrashDuringMigration(t *testing.T) {
	rec := obs.NewRecorder(0)
	res := Build(quick(Config{Seed: 7, Scheme: ServiceFridge, BudgetFraction: 0.8, Events: rec}))
	res.Orch.SetFailurePolicy(orchestrator.FailurePolicy{AutoRestart: true})
	// The fridge migrates during the first few ticks; crash ticketinfo
	// right in that window, repeatedly.
	for ms := 1000; ms <= 3000; ms += 250 {
		ms := ms
		res.Engine.Schedule(time.Duration(ms)*time.Millisecond, func() {
			for _, n := range res.Orch.NodesOf("ticketinfo") {
				res.Orch.CrashOn("ticketinfo", n.Name())
				break
			}
		})
	}
	res.Engine.RunFor(12 * time.Second)
	if res.Orch.Replicas("ticketinfo") == 0 {
		t.Fatal("ticketinfo lost permanently")
	}
	if res.Executor.Completed() == 0 {
		t.Fatal("nothing completed")
	}
	counts := countEvents(t, rec)
	if got, want := counts["crash"], int(res.Orch.Crashes()); got != want {
		t.Fatalf("%d crash events for %d orchestrator crashes", got, want)
	}
	if counts["restart"] == 0 {
		t.Fatal("no restart events despite AutoRestart")
	}
}
