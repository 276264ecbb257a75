package engine

import (
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// TestForkDetourInvisible is the what-if safety property: pausing a run
// mid-flight, replaying a fork from the base snapshot, exploring a
// perturbed branch to completion, and rewinding to the paused position —
// by replay or by restoring a bookmark — must leave the resumed run
// byte-identical to one that never forked.
func TestForkDetourInvisible(t *testing.T) {
	cold := Run(instrumentedConfig("ServiceFridge"))
	want := fingerprint(t, cold)

	live := Build(instrumentedConfig("ServiceFridge"))
	base := live.Snapshot() // t=0 base for forks and the resume replay
	live.Engine.RunUntil(sim.Time(3 * time.Second))
	paused := live.Engine.Now()

	// The detour: fork at t=1.5s, run the baseline branch out, rewind to
	// the fork, perturb everything perturbable, run that branch out.
	snap, err := live.ForkAt(base, sim.Time(1500*time.Millisecond))
	if err != nil {
		t.Fatalf("ForkAt: %v", err)
	}
	if live.Engine.Now() != sim.Time(1500*time.Millisecond) {
		t.Fatalf("fork left the clock at %v", live.Engine.Now())
	}
	live.Finish()
	baseline := live.Summary("")
	if baseline.Count == 0 {
		t.Fatal("baseline branch completed no requests")
	}
	live.Restore(snap)
	live.SetBudgetFraction(0.75)
	live.ClampFreq(1.6)
	live.ScaleWorkers(1.5)
	live.Finish()
	perturbed := live.Summary("")
	if perturbed == baseline {
		t.Fatal("perturbed branch produced identical stats to baseline (perturbations had no effect)")
	}
	for _, s := range live.Cluster.Servers() {
		if s.Freq() > 1.6 {
			t.Fatalf("server %s at %v escaped the 1.6GHz clamp", s.Name(), s.Freq())
		}
	}

	// Replay back to the paused position: the detour must be invisible.
	if err := live.ReplayTo(base, paused); err != nil {
		t.Fatalf("ReplayTo: %v", err)
	}

	// A second detour resumes by restoring a bookmark instead: snapshots
	// own their data, so the perturbed branch cannot reach the bookmark's
	// stores.
	bookmark := live.Snapshot()
	live.Restore(snap)
	live.SetBudgetFraction(0.6)
	live.ClampFreq(1.4)
	live.ScaleWorkers(0.5)
	live.Finish()
	live.Restore(bookmark)
	live.Finish()
	if got := fingerprint(t, live); got != want {
		t.Fatal("run with what-if detours diverged from the cold run")
	}
}

// TestUnperturbedBookmarkResume pins the regression where a restore that
// rewound past a region's first response deleted the per-region series
// object from the collector's map, so a later bookmark restore fixed up
// an orphaned object while the live map pointed at a replacement. An
// unperturbed detour writes back the exact bytes it overwrites, so the
// bookmark pattern is sound — once series object identity survives.
func TestUnperturbedBookmarkResume(t *testing.T) {
	cold := Run(instrumentedConfig("ServiceFridge"))
	want := fingerprint(t, cold)

	live := Build(instrumentedConfig("ServiceFridge"))
	base := live.Snapshot()
	live.Engine.RunUntil(sim.Time(3 * time.Second))
	cur := live.Snapshot()

	snap, err := live.ForkAt(base, sim.Time(1500*time.Millisecond))
	if err != nil {
		t.Fatalf("ForkAt: %v", err)
	}
	live.Finish()
	live.Restore(snap)
	live.Finish()
	live.Restore(cur)
	live.Finish()
	if got := fingerprint(t, live); got != want {
		t.Fatal("unperturbed detour with a bookmark resume diverged from the cold run")
	}
}

func TestForkAtBounds(t *testing.T) {
	live := Build(instrumentedConfig("Capping"))
	base := live.Snapshot()
	live.Engine.RunUntil(sim.Time(2 * time.Second))
	mid := live.Snapshot()
	if _, err := live.ForkAt(mid, sim.Time(time.Second)); err == nil {
		t.Fatal("ForkAt accepted a fork time before the base snapshot")
	}
	if _, err := live.ForkAt(base, live.Total()+1); err == nil {
		t.Fatal("ForkAt accepted a fork time past the run's end")
	}
	if _, err := live.ForkAt(base, live.Total()); err != nil {
		t.Fatalf("ForkAt rejected the run's end time: %v", err)
	}
}

func TestTotalUsesPhasesWhenLonger(t *testing.T) {
	cfg := instrumentedConfig("Baseline")
	res := Build(cfg)
	if got, want := res.Total(), sim.Time(6*time.Second); got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
}

func TestScaleWorkersFloor(t *testing.T) {
	cfg := instrumentedConfig("Baseline")
	cfg.Workers = 4
	res := Build(cfg)
	res.ScaleWorkers(0.01) // rounds to 0 but the pool was non-empty
	if got := res.Gen.Workers(); got != 1 {
		t.Fatalf("ScaleWorkers(0.01) left %d workers, want floor of 1", got)
	}
	res.ScaleWorkers(2.5)
	if got := res.Gen.Workers(); got != 10 {
		t.Fatalf("ScaleWorkers(2.5) set %d workers, want 10", got)
	}
}
