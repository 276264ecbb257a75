package engine

import (
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/power"
	"servicefridge/internal/workload"
)

func quick(cfg Config) Config {
	cfg.Warmup = 2 * time.Second
	cfg.Duration = 8 * time.Second
	if cfg.PoolWorkers == nil && cfg.Workers == 0 {
		cfg.PoolWorkers = map[string]int{"A": 5, "B": 5}
	}
	return cfg
}

func TestRunBaselineCompletesRequests(t *testing.T) {
	res := Run(quick(Config{Seed: 1}))
	if res.Executor.Completed() == 0 {
		t.Fatal("no requests completed")
	}
	if res.Summary("A").Count == 0 || res.Summary("B").Count == 0 {
		t.Fatal("missing post-warmup samples")
	}
	if len(res.Meter.ClusterSamples()) == 0 {
		t.Fatal("meter collected nothing")
	}
	// Baseline never changes frequency.
	for _, s := range res.Cluster.Servers() {
		if s.Freq() != cluster.FreqMax {
			t.Fatalf("baseline server %s at %v", s.Name(), s.Freq())
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := Run(quick(Config{Seed: 9, Scheme: ServiceFridge, BudgetFraction: 0.8}))
	b := Run(quick(Config{Seed: 9, Scheme: ServiceFridge, BudgetFraction: 0.8}))
	if a.Executor.Completed() != b.Executor.Completed() {
		t.Fatalf("completions differ: %d vs %d", a.Executor.Completed(), b.Executor.Completed())
	}
	if a.Summary("A").Mean != b.Summary("A").Mean {
		t.Fatalf("mean differs: %v vs %v", a.Summary("A").Mean, b.Summary("A").Mean)
	}
	if a.Meter.MeanDynamic() != b.Meter.MeanDynamic() {
		t.Fatal("power traces differ")
	}
}

func TestSeedChangesResults(t *testing.T) {
	a := Run(quick(Config{Seed: 1}))
	b := Run(quick(Config{Seed: 2}))
	if a.Summary("A").Mean == b.Summary("A").Mean && a.Summary("B").Mean == b.Summary("B").Mean {
		t.Fatal("different seeds produced identical latencies")
	}
}

func TestEverySchemeRuns(t *testing.T) {
	for _, scheme := range []SchemeName{Baseline, Capping, PFirst, TFirst, ServiceFridge} {
		res := Run(quick(Config{Seed: 3, Scheme: scheme, BudgetFraction: 0.8}))
		if res.Executor.Completed() == 0 {
			t.Fatalf("%s completed nothing", scheme)
		}
		if (scheme == ServiceFridge) != (res.Fridge != nil) {
			t.Fatalf("%s fridge pointer wrong", scheme)
		}
	}
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(quick(Config{Seed: 1, Scheme: "Nonsense"}))
}

func TestBudgetThrottlesThroughput(t *testing.T) {
	maxReq := CalibrateMaxRequired(quick(Config{Seed: 4}))
	if maxReq <= 0 {
		t.Fatal("calibration returned nothing")
	}
	free := Run(quick(Config{Seed: 4, Scheme: Capping, BudgetFraction: 1.0, MaxRequired: maxReq}))
	tight := Run(quick(Config{Seed: 4, Scheme: Capping, BudgetFraction: 0.75, MaxRequired: maxReq}))
	if tight.Meter.MeanDynamic() >= free.Meter.MeanDynamic() {
		t.Fatalf("75%% budget should reduce dynamic power: %v vs %v",
			tight.Meter.MeanDynamic(), free.Meter.MeanDynamic())
	}
	if tight.Summary("A").Mean <= free.Summary("A").Mean {
		t.Fatal("capping below required power should cost latency")
	}
}

func TestMaxRequiredSetsBudgetBase(t *testing.T) {
	res := Build(Config{Seed: 1, MaxRequired: power.Watts(400), BudgetFraction: 0.8})
	if res.Budget.MaxPower() != 400 {
		t.Fatalf("budget base = %v, want 400", res.Budget.MaxPower())
	}
	if res.Budget.Cap() != 320 {
		t.Fatalf("cap = %v, want 320", res.Budget.Cap())
	}
}

// TestPeakDrawMatchesCalibration pins the equivalence the experiments rely
// on when they read the budget base off an uncapped Baseline run they
// already have instead of calibrating the same configuration again.
func TestPeakDrawMatchesCalibration(t *testing.T) {
	cfg := quick(Config{Seed: 3})
	peak := Run(cfg).PeakDraw()
	if peak <= 0 {
		t.Fatal("uncapped run metered no draw")
	}
	if cal := CalibrateMaxRequired(cfg); peak != cal {
		t.Fatalf("Run(cfg).PeakDraw() = %v, CalibrateMaxRequired(cfg) = %v", peak, cal)
	}
}

func TestPinToExcludesNodeFromRoundRobin(t *testing.T) {
	res := Build(Config{Seed: 1, PinTo: map[string]string{"seat": "serverB"}})
	nodes := res.Orch.NodesOf("seat")
	if len(nodes) != 1 || nodes[0].Name() != "serverB" {
		t.Fatalf("seat on %v, want serverB", nodes)
	}
	if got := res.Orch.ServicesOn(res.Cluster.Server("serverB")); len(got) != 1 {
		t.Fatalf("serverB hosts %v, want only the pinned service", got)
	}
}

func TestFixedFreqsApplied(t *testing.T) {
	res := Run(quick(Config{Seed: 1, FixedFreqs: map[string]cluster.GHz{"serverB": 1.8}}))
	if got := res.Cluster.Server("serverB").Freq(); got != 1.8 {
		t.Fatalf("serverB at %v, want 1.8 (fixed frequency must survive the run)", got)
	}
}

func TestFixedFreqsUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(Config{Seed: 1, FixedFreqs: map[string]cluster.GHz{"ghost": 1.8}})
}

func TestPhasesDriveWorkers(t *testing.T) {
	res := Build(Config{
		Seed: 1,
		Mix:  workload.Ratio(1, 1),
		Phases: []workload.Phase{
			{Duration: 5 * time.Second, Workers: 2},
			{Duration: 5 * time.Second, Workers: 8},
		},
		Warmup:   time.Second,
		Duration: 9 * time.Second,
	})
	res.Engine.RunFor(3 * time.Second)
	if res.Gen.Workers() != 2 {
		t.Fatalf("phase-1 workers = %d, want 2", res.Gen.Workers())
	}
	res.Engine.RunFor(6 * time.Second)
	if res.Gen.Workers() != 8 {
		t.Fatalf("phase-2 workers = %d, want 8", res.Gen.Workers())
	}
	if res.Executor.Completed() == 0 {
		t.Fatal("phased run completed nothing")
	}
}

func TestTrackFreqOfRecordsSeries(t *testing.T) {
	res := Run(quick(Config{
		Seed: 1, Scheme: ServiceFridge, BudgetFraction: 0.8,
		TrackFreqOf: []string{"ticketinfo", "config"},
	}))
	if len(res.FreqSeries["ticketinfo"]) == 0 || len(res.FreqSeries["config"]) == 0 {
		t.Fatal("frequency series not recorded")
	}
}

func TestPerRegionPoolsLaunchBothRegions(t *testing.T) {
	res := Run(quick(Config{Seed: 1, PoolWorkers: map[string]int{"A": 3, "B": 7}}))
	if res.Pools["A"].Launched() == 0 || res.Pools["B"].Launched() == 0 {
		t.Fatal("pools did not launch")
	}
	// B requests are far shorter, so the B pool must complete many more.
	if res.Pools["B"].Launched() <= res.Pools["A"].Launched() {
		t.Fatal("B pool should outpace A pool")
	}
}

func TestFridgeStaysNearBudgetOnAverage(t *testing.T) {
	maxReq := CalibrateMaxRequired(quick(Config{Seed: 5}))
	res := Run(quick(Config{Seed: 5, Scheme: ServiceFridge, BudgetFraction: 0.8, MaxRequired: maxReq}))
	cap := res.Budget.Cap()
	var mean power.Watts
	for _, cs := range res.Meter.ClusterSamples() {
		mean += cs.Total
	}
	mean /= power.Watts(len(res.Meter.ClusterSamples()))
	// The controller is reactive; allow a 10% average overshoot.
	if float64(mean) > float64(cap)*1.10 {
		t.Fatalf("mean draw %v far above cap %v", mean, cap)
	}
}
