package engine

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/schemes"
)

func TestAllSchemesFollowsRegistryCompareOrder(t *testing.T) {
	want := []SchemeName{PFirst, TFirst, ServiceFridge, Capping}
	if got := AllSchemes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AllSchemes() = %v, want %v (Figure 15-16 column order)", got, want)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero Config must validate (defaults apply): %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"unknown scheme", Config{Scheme: "Nonsense"}, `unknown scheme "Nonsense" (known: Baseline, Capping`},
		{"negative budget", Config{BudgetFraction: -0.5}, "BudgetFraction"},
		{"budget above one", Config{BudgetFraction: 1.5}, "BudgetFraction 1.5 must be in (0, 1]"},
		{"NaN budget", Config{BudgetFraction: math.NaN()}, "BudgetFraction NaN must be in (0, 1]"},
		{"negative max required", Config{MaxRequired: -1}, "MaxRequired"},
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative extra workers", Config{ExtraWorkers: -2}, "ExtraWorkers"},
		{"negative warmup", Config{Warmup: -time.Second}, "Warmup"},
		{"negative control interval", Config{ControlInterval: -time.Second}, "ControlInterval"},
		{"negative startup delay", Config{StartupDelay: -time.Second}, "StartupDelay"},
		{"pin unknown service", Config{PinTo: map[string]string{"ghost": "serverB"}}, `unknown service "ghost"`},
		{"pin empty node", Config{PinTo: map[string]string{"seat": ""}}, "empty node"},
		{"pool unknown region", Config{PoolWorkers: map[string]int{"Z": 1}}, `unknown region "Z"`},
		{"pool negative size", Config{PoolWorkers: map[string]int{"A": -3}}, "must not be negative"},
		{"openloop unknown region", Config{OpenLoopRate: map[string]float64{"Z": 1}}, `unknown region "Z"`},
		{"openloop negative rate", Config{OpenLoopRate: map[string]float64{"A": -1}}, "must not be negative"},
		{"track unknown service", Config{TrackFreqOf: []string{"ghost"}}, `unknown service "ghost"`},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestBuildEReportsUnknownNodes(t *testing.T) {
	// Node names are only known once the testbed exists, so these surface
	// from BuildE rather than Validate — and must list the real nodes.
	_, err := BuildE(Config{Seed: 1, PinTo: map[string]string{"seat": "ghost"}})
	if err == nil || !strings.Contains(err.Error(), `unknown node "ghost"`) ||
		!strings.Contains(err.Error(), "serverB") {
		t.Fatalf("PinTo ghost node: err = %v, want unknown-node error listing the testbed", err)
	}
	_, err = BuildE(Config{Seed: 1, FixedFreqs: map[string]cluster.GHz{"ghost": 1.8}})
	if err == nil || !strings.Contains(err.Error(), `unknown node "ghost"`) {
		t.Fatalf("FixedFreqs ghost node: err = %v, want unknown-node error", err)
	}
}

func TestRunEReturnsErrorNotPanic(t *testing.T) {
	res, err := RunE(quick(Config{Seed: 1, Scheme: "Nonsense"}))
	if err == nil {
		t.Fatal("RunE with an unknown scheme returned nil error")
	}
	if res != nil {
		t.Fatal("RunE returned a partial Result alongside an error")
	}
}

// TestResultStatsAreMemoized pins the caching contract: repeated Responses
// and Summary queries return the same computed object, and ResetStats
// re-derives them.
func TestResultStatsAreMemoized(t *testing.T) {
	res := Run(quick(Config{Seed: 1}))
	s1 := res.Responses("A")
	s2 := res.Responses("A")
	if s1 != s2 {
		t.Fatal("Responses not memoized: distinct objects for the same region")
	}
	sum1 := res.Summary("A")
	sum2 := res.Summary("A")
	if sum1 != sum2 {
		t.Fatal("Summary not memoized")
	}
	res.ResetStats()
	s3 := res.Responses("A")
	if s3 == s1 {
		t.Fatal("ResetStats did not drop the cache")
	}
	if s3.Summarize() != sum1 {
		t.Fatal("recomputed stats differ from the cached ones on an unchanged run")
	}
}

// TestFreqPointRecordsHostAcrossMigration is the regression test for the
// sampler bug: FreqPoint must carry the host name, so a tracked service's
// frequency series stays attributable when the orchestrator migrates it.
func TestFreqPointRecordsHostAcrossMigration(t *testing.T) {
	res, err := BuildE(Config{
		Seed:        1,
		PinTo:       map[string]string{"seat": "serverB"},
		TrackFreqOf: []string{"seat"},
		Warmup:      time.Second,
		Duration:    9 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Engine.RunFor(3 * time.Second)
	res.Orch.MoveService("seat", []*cluster.Server{res.Cluster.Server("serverC1")})
	res.Engine.RunFor(6 * time.Second)

	pts := res.FreqSeries["seat"]
	if len(pts) < 5 {
		t.Fatalf("only %d frequency samples recorded", len(pts))
	}
	for _, p := range pts {
		if p.Host == "" {
			t.Fatalf("sample at %v has no host", p.At)
		}
		if p.Freq <= 0 {
			t.Fatalf("sample at %v has frequency %v", p.At, p.Freq)
		}
	}
	if pts[0].Host != "serverB" {
		t.Fatalf("first sample on %q, want serverB (pinned placement)", pts[0].Host)
	}
	last := pts[len(pts)-1]
	if last.Host != "serverC1" {
		t.Fatalf("last sample on %q, want serverC1 (post-migration host)", last.Host)
	}
	if res.Orch.Migrations() == 0 {
		t.Fatal("migration did not register")
	}
}

// TestExtensionSchemeRunsThroughEngine: a scheme registered outside
// internal/engine and internal/schemes is buildable by name — the registry
// decouples the engine from the scheme set. Rank 0 keeps it out of
// AllSchemes.
func TestExtensionSchemeRunsThroughEngine(t *testing.T) {
	schemes.Register(schemes.Registration{
		Name: "engine-test-ext",
		New: func(in schemes.BuildInput) schemes.Built {
			return schemes.Built{Scheme: schemes.NewBaseline(in.Ctx)}
		},
	})
	res, err := RunE(quick(Config{Seed: 1, Scheme: "engine-test-ext"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executor.Completed() == 0 {
		t.Fatal("extension scheme completed no requests")
	}
	for _, s := range AllSchemes() {
		if s == "engine-test-ext" {
			t.Fatal("rank-0 extension leaked into AllSchemes")
		}
	}
}
