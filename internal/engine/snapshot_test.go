package engine

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/obs"
	"servicefridge/internal/schemes"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
)

// fingerprint serializes everything a run exports — latency summaries,
// meter readings, trace counts (and, under KeepSpans, a digest of every
// retained trace and span), orchestrator actions, the event JSONL and the
// telemetry CSV — so two runs compare byte-for-byte.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	for _, region := range []string{"", "A", "B"} {
		s := res.Summary(region)
		fmt.Fprintf(&b, "region=%q count=%d mean=%d p90=%d p95=%d p99=%d min=%d max=%d sd=%d\n",
			region, s.Count, s.Mean, s.P90, s.P95, s.P99, s.Min, s.Max, s.StdDev)
	}
	for _, cs := range res.Meter.ClusterSamples() {
		fmt.Fprintf(&b, "cs at=%d total=%v dyn=%v util=%v\n", cs.At, cs.Total, cs.Dynamic, cs.Util)
	}
	for _, smp := range res.Meter.Samples() {
		fmt.Fprintf(&b, "s at=%d srv=%s f=%v u=%v p=%v\n", smp.At, smp.Server, smp.Freq, smp.Util, smp.Power)
	}
	fmt.Fprintf(&b, "traces=%d launched=%d completed=%d migrations=%d crashes=%d\n",
		res.Collector.Count(""), res.Executor.Launched(), res.Executor.Completed(),
		res.Orch.Migrations(), res.Orch.Crashes())
	if res.Config.KeepSpans {
		h := fnv.New64a()
		for _, tr := range res.Collector.Traces() {
			fmt.Fprintf(h, "%d %s %d %d|", tr.ID, tr.Region, tr.Begin, tr.Finish)
			for _, sp := range tr.Spans {
				fmt.Fprintf(h, "%s %s %d %d %d %v|", sp.Service, sp.Host, sp.Submit, sp.Start, sp.End, sp.FreqGHz)
			}
		}
		fmt.Fprintf(&b, "retained=%d spans=%016x\n", len(res.Collector.Traces()), h.Sum64())
	}
	svcs := make([]string, 0, len(res.FreqSeries))
	for svc := range res.FreqSeries {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		for _, p := range res.FreqSeries[svc] {
			fmt.Fprintf(&b, "fp %s at=%d host=%s f=%v\n", svc, p.At, p.Host, p.Freq)
		}
	}
	if res.Config.Events != nil {
		if err := res.Config.Events.WriteJSONL(&b); err != nil {
			t.Fatalf("events jsonl: %v", err)
		}
	}
	if res.Config.Telemetry != nil {
		if err := res.Config.Telemetry.WriteCSV(&b); err != nil {
			t.Fatalf("telemetry csv: %v", err)
		}
	}
	if res.Config.Ledger != nil {
		if err := res.Config.Ledger.WriteJSONL(&b); err != nil {
			t.Fatalf("ledger jsonl: %v", err)
		}
	}
	return b.String()
}

// instrumentedConfig returns a config that exercises every stateful
// component: both worker pools, an open loop, events, telemetry and
// frequency tracking. Each call builds fresh instrumentation (telemetry
// binds once).
func instrumentedConfig(scheme string) Config {
	return Config{
		Seed:           7,
		Scheme:         SchemeName(scheme),
		BudgetFraction: 0.8,
		PoolWorkers:    map[string]int{"A": 6, "B": 6},
		OpenLoopRate:   map[string]float64{"A": 40},
		Warmup:         2 * time.Second,
		Duration:       4 * time.Second,
		TrackFreqOf:    []string{"seat"},
		Events:         obs.NewRecorder(4096),
		Telemetry:      telemetry.New(telemetry.Options{}),
		Ledger:         obs.NewLedger(),
	}
}

// TestSnapshotRestoreByteIdentical is the warm-start correctness property:
// for every registered scheme, snapshotting at a random simulation time is
// invisible (the interrupted run finishes byte-identical to a cold run),
// and restoring the snapshot and finishing again replays the exact same
// run a second time.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	names := schemes.Names()
	sort.Strings(names)
	rng := rand.New(rand.NewSource(42))
	for _, name := range names {
		name := name
		cut := time.Duration(rng.Int63n(int64(6 * time.Second)))
		t.Run(name, func(t *testing.T) {
			cold := Run(instrumentedConfig(name))
			want := fingerprint(t, cold)

			warm := Build(instrumentedConfig(name))
			warm.Engine.RunUntil(sim.Time(cut))
			snap := warm.Snapshot()
			if snap.Now() != warm.Engine.Now() {
				t.Fatalf("snapshot time %v != engine now %v", snap.Now(), warm.Engine.Now())
			}
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatalf("run with snapshot at t=%v diverged from cold run", cut)
			}

			warm.Restore(snap)
			if warm.Engine.Now() != snap.Now() {
				t.Fatalf("restore left clock at %v, want %v", warm.Engine.Now(), snap.Now())
			}
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatalf("restored fork from t=%v diverged from cold run", cut)
			}

			// The snapshot must be reusable: fork a second time.
			warm.Restore(snap)
			warm.Finish()
			if got := fingerprint(t, warm); got != want {
				t.Fatalf("second fork from t=%v diverged from cold run", cut)
			}
		})
	}
}

// TestBookmarkRestoreAnyOrder is the bookmark property: snapshots own
// their data, so after perturbed detours from random snapshots along the
// unperturbed path, restoring any snapshot — earlier or later than the
// detour's fork, in random order — and finishing reproduces the cold run
// byte for byte.
// It covers every registered scheme plus a profile-driven run (the one
// ScaleTraffic applies to), each with KeepSpans off and on, all with the
// event recorder and ledger on, and a ServiceFridge run whose recorder
// ring is small enough to wrap, so bookmarks capture and restore a
// wrapped ring and its reclaimed zone-member arena.
func TestBookmarkRestoreAnyOrder(t *testing.T) {
	type variant struct {
		name    string
		cfg     func() Config
		profile bool
	}
	var variants []variant
	names := schemes.Names()
	sort.Strings(names)
	for _, name := range names {
		name := name
		variants = append(variants, variant{name: name, cfg: func() Config {
			cfg := instrumentedConfig(name)
			cfg.Workers = 4 // a mixed pool for ScaleWorkers to scale
			return cfg
		}})
	}
	variants = append(variants, variant{name: "profile", profile: true,
		cfg: func() Config { return profileConfig(t, "diurnal", false) }})
	variants = append(variants, variant{name: "ServiceFridge/ring=16", cfg: func() Config {
		cfg := instrumentedConfig("ServiceFridge")
		cfg.Events = obs.NewRecorder(16)
		return cfg
	}})

	rng := rand.New(rand.NewSource(14))
	for _, v := range variants {
		for _, keep := range []bool{false, true} {
			v, keep := v, keep
			seed := rng.Int63()
			t.Run(fmt.Sprintf("%s/keepspans=%v", v.name, keep), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				config := func() Config {
					cfg := v.cfg()
					cfg.KeepSpans = keep
					return cfg
				}
				want := fingerprint(t, Run(config()))

				live := Build(config())
				total := int64(live.Total())
				cuts := make([]int64, 4)
				for i := range cuts {
					cuts[i] = rng.Int63n(total)
				}
				sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
				var marks []*RunState
				for _, at := range cuts {
					live.Engine.RunUntil(sim.Time(at))
					marks = append(marks, live.Snapshot())
				}

				for round := 0; round < 3; round++ {
					fork := marks[rng.Intn(len(marks))]
					live.Restore(fork)
					perturb(t, live, rng, v.profile)
					if rng.Intn(2) == 0 {
						live.Finish()
					} else {
						live.Engine.RunUntil(fork.Now() + sim.Time(rng.Int63n(total-int64(fork.Now())+1)))
					}
					for _, i := range rng.Perm(len(marks)) {
						live.Restore(marks[i])
						live.Finish()
						if got := fingerprint(t, live); got != want {
							t.Fatalf("round %d: restoring the t=%v bookmark after a detour from t=%v diverged from the cold run",
								round, marks[i].Now(), fork.Now())
						}
					}
				}
			})
		}
	}
}

// perturb applies a random non-empty set of what-if perturbations.
func perturb(t *testing.T, res *Result, rng *rand.Rand, profile bool) {
	t.Helper()
	for applied := false; !applied; {
		if rng.Intn(2) == 0 {
			res.SetBudgetFraction(0.5 + 0.4*rng.Float64())
			applied = true
		}
		if rng.Intn(2) == 0 {
			res.ClampFreq(cluster.GHz(1.2 + 0.1*float64(rng.Intn(8))))
			applied = true
		}
		if rng.Intn(2) == 0 {
			res.ScaleWorkers(0.5 + 1.5*rng.Float64())
			applied = true
		}
		if profile && rng.Intn(2) == 0 {
			if err := res.ScaleTraffic(0.5 + 1.5*rng.Float64()); err != nil {
				t.Fatalf("ScaleTraffic: %v", err)
			}
			applied = true
		}
	}
}

// TestRestoreForeignRunStatePanics pins the owner guard: a RunState
// restores only into the Result it was taken from. Restoring another
// run's state would write through that run's saved pointers into its
// objects, so it panics instead.
func TestRestoreForeignRunStatePanics(t *testing.T) {
	a := Build(Config{Seed: 1, Workers: 4})
	b := Build(Config{Seed: 1, Workers: 4})
	a.Engine.RunUntil(sim.Time(time.Second))
	snap := a.Snapshot()
	a.Restore(snap) // its own run: fine
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "different Result") {
			t.Fatalf("Restore of a foreign RunState: recovered %q, want the owner-guard panic", msg)
		}
	}()
	b.Restore(snap)
}

// TestSnapshotWarmBudgetSweep drives the budget-sweep loop end to end:
// ForkEach warms up once to the budget-independence barrier and forks one
// cell per budget fraction, and every cell must be byte-identical to a
// single run at its fraction.
func TestSnapshotWarmBudgetSweep(t *testing.T) {
	fractions := []float64{1.0, 0.9, 0.8, 0.75}
	base := func(frac float64) Config {
		cfg := instrumentedConfig("ServiceFridge")
		cfg.BudgetFraction = frac
		return cfg
	}

	donor := Build(base(fractions[0]))
	if barrier := donor.WarmBarrier(); barrier <= 0 || barrier >= sim.Time(time.Second) {
		t.Fatalf("warm barrier %v outside (0, ControlInterval)", barrier)
	}
	forks := ForkEach(donor, fractions,
		func(res *Result, _ float64) string { return fingerprint(t, res) })
	for i, frac := range fractions {
		if want := fingerprint(t, Run(base(frac))); forks[i] != want {
			t.Fatalf("forked cell at fraction %v diverged from a single run", frac)
		}
	}
}

// TestSetBudgetFraction pins the shared-budget plumbing: retargeting the
// result's budget must be visible to the scheme context and the config.
func TestSetBudgetFraction(t *testing.T) {
	res := Build(Config{Scheme: Capping, BudgetFraction: 1.0})
	capBefore := res.Budget.Cap()
	res.SetBudgetFraction(0.5)
	if res.Budget.Fraction != 0.5 || res.Config.BudgetFraction != 0.5 {
		t.Fatalf("fraction = %v / cfg %v, want 0.5", res.Budget.Fraction, res.Config.BudgetFraction)
	}
	if got := res.Budget.Cap(); got >= capBefore {
		t.Fatalf("cap %v did not drop from %v", got, capBefore)
	}
	res.SetBudgetFraction(2.0)
	if res.Budget.Fraction != 1 {
		t.Fatalf("fraction %v not clamped to 1", res.Budget.Fraction)
	}
}
