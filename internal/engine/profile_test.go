package engine

import (
	"strings"
	"testing"
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/workload"
)

// profileConfig builds an instrumented config driven by the named
// registered traffic shape over the study app's two regions.
func profileConfig(t *testing.T, shape string, closed bool) Config {
	t.Helper()
	reg, ok := workload.Lookup(shape)
	if !ok {
		t.Fatalf("unknown shape %q", shape)
	}
	prof, err := reg.New(workload.GenInput{
		Regions: []string{"A", "B"},
		Rates:   map[string]float64{"A": 12, "B": 25},
		Horizon: 6 * time.Second,
		Seed:    7,
	})
	if err != nil {
		t.Fatalf("%s: %v", shape, err)
	}
	return Config{
		Seed:           7,
		Scheme:         ServiceFridge,
		BudgetFraction: 0.8,
		Profile:        prof,
		ProfileClosed:  closed,
		Warmup:         2 * time.Second,
		Duration:       4 * time.Second,
		TrackFreqOf:    []string{"seat"},
		Events:         obs.NewRecorder(4096),
		Telemetry:      telemetry.New(telemetry.Options{}),
	}
}

// TestProfileSnapshotRestoreByteIdentical is the satellite property test:
// for every registered traffic shape, interleaving Snapshot and Restore
// mid-profile is invisible — the driver's epoch, cursor and applied
// setpoints rewind with everything else, and every replay is
// byte-identical to a cold run.
func TestProfileSnapshotRestoreByteIdentical(t *testing.T) {
	for _, shape := range workload.Names() {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			cold := Run(profileConfig(t, shape, false))
			want := fingerprint(t, cold)

			// Snapshot twice mid-profile (one cut before, one after the
			// warmup boundary), then restore in interleaved order: finish
			// from the later cut, rewind to the earlier, finish again,
			// rewind to the later once more.
			warm := Build(profileConfig(t, shape, false))
			warm.Engine.RunUntil(sim.Time(1300 * time.Millisecond))
			early := warm.Snapshot()
			warm.Engine.RunUntil(sim.Time(3700 * time.Millisecond))
			late := warm.Snapshot()

			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatal("run with mid-profile snapshots diverged from cold run")
			}
			warm.Restore(early)
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatal("replay from the early cut diverged from cold run")
			}
			warm.Restore(late)
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatal("replay from the late cut diverged from cold run")
			}
			warm.Restore(early)
			warm.Engine.RunUntil(sim.Time(3700 * time.Millisecond))
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatal("re-interleaved replay diverged from cold run")
			}
		})
	}
}

// TestProfileClosedSnapshotRestore covers the closed-loop driver path
// (setpoints move worker pools instead of arrival rates).
func TestProfileClosedSnapshotRestore(t *testing.T) {
	cold := Run(profileConfig(t, "diurnal", true))
	want := fingerprint(t, cold)
	warm := Build(profileConfig(t, "diurnal", true))
	warm.Engine.RunUntil(sim.Time(2500 * time.Millisecond))
	snap := warm.Snapshot()
	warm.Finish()
	if got := fingerprint(t, warm); got != want {
		t.Fatal("closed-loop profile run with snapshot diverged from cold run")
	}
	warm.Restore(snap)
	warm.Finish()
	if got := fingerprint(t, warm); got != want {
		t.Fatal("closed-loop profile replay diverged from cold run")
	}
}

// TestProfileWarmSweepByteIdentical is the budget-sweep loop under
// time-varying traffic: every cell ForkEach forks from one warmed-up
// snapshot must be byte-identical to a single run, for every registered
// shape.
func TestProfileWarmSweepByteIdentical(t *testing.T) {
	fractions := []float64{1.0, 0.8}
	for _, shape := range workload.Names() {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			forks := ForkEach(Build(profileConfig(t, shape, false)), fractions,
				func(res *Result, _ float64) string { return fingerprint(t, res) })
			for i, frac := range fractions {
				cfg := profileConfig(t, shape, false)
				cfg.BudgetFraction = frac
				if got := fingerprint(t, Run(cfg)); got != forks[i] {
					t.Fatalf("budget %v: forked cell diverged from a single run", frac)
				}
			}
		})
	}
}

// TestProfileTraceReplayByteIdentical: a run driven by a generator and a
// run driven by that generator's schedule round-tripped through the CSV
// trace codec execute the identical event sequence.
func TestProfileTraceReplayByteIdentical(t *testing.T) {
	cfg := profileConfig(t, "diurnal", false)
	want := fingerprint(t, Run(cfg))

	var buf strings.Builder
	if err := workload.WriteTrace(&buf, cfg.Profile); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	replayed, err := workload.ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	cfg2 := profileConfig(t, "diurnal", false)
	cfg2.Profile = replayed
	if got := fingerprint(t, Run(cfg2)); got != want {
		t.Fatal("trace replay diverged from the generating run")
	}
}

// TestScaleTrafficAndSwapProfile exercises the what-if perturbation
// surface: both must error without a driver, both must take effect, and a
// restore after the perturbation must rewind it.
func TestScaleTrafficAndSwapProfile(t *testing.T) {
	plain := Build(Config{Seed: 1, Workers: 4, Warmup: time.Second, Duration: time.Second})
	if err := plain.ScaleTraffic(2); err == nil {
		t.Error("ScaleTraffic succeeded without a profile-driven run")
	}
	if err := plain.SwapProfile(&workload.Profile{}); err == nil {
		t.Error("SwapProfile succeeded without a profile-driven run")
	}

	cfg := profileConfig(t, "steady", false)
	res := Build(cfg)
	res.Engine.RunUntil(sim.Time(3 * time.Second))
	snap := res.Snapshot()
	if err := res.ScaleTraffic(0); err == nil {
		t.Error("ScaleTraffic accepted a non-positive factor")
	}
	if err := res.ScaleTraffic(1.5); err != nil {
		t.Fatalf("ScaleTraffic: %v", err)
	}
	if got := res.Driver.Scale(); got != 1.5 {
		t.Fatalf("scale = %v, want 1.5", got)
	}
	res.Finish()
	scaled := fingerprint(t, res)

	res.Restore(snap)
	if got := res.Driver.Scale(); got != 1 {
		t.Fatalf("restore left scale at %v", got)
	}
	res.Finish()
	unscaled := fingerprint(t, res)
	if scaled == unscaled {
		t.Fatal("scaling the traffic had no observable effect")
	}

	// The perturbed branch and the clean branch must both replay
	// deterministically from the same snapshot.
	res.Restore(snap)
	if err := res.ScaleTraffic(1.5); err != nil {
		t.Fatalf("ScaleTraffic (again): %v", err)
	}
	res.Finish()
	if got := fingerprint(t, res); got != scaled {
		t.Fatal("perturbed branch is not deterministic")
	}

	// Swap to flash-crowd mid-run and check the driver took it.
	res.Restore(snap)
	reg, _ := workload.Lookup("flash-crowd")
	swap, err := reg.New(workload.GenInput{
		Regions: []string{"A", "B"},
		Rates:   map[string]float64{"A": 12, "B": 25},
		Horizon: 6 * time.Second,
		Seed:    7,
	})
	if err != nil {
		t.Fatalf("flash-crowd: %v", err)
	}
	if err := res.SwapProfile(swap); err != nil {
		t.Fatalf("SwapProfile: %v", err)
	}
	if res.Driver.Profile() != swap {
		t.Fatal("driver still runs the old profile")
	}
	res.Finish()
	swapped := fingerprint(t, res)
	if swapped == unscaled {
		t.Fatal("profile swap had no observable effect")
	}
}
