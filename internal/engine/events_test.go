package engine

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"servicefridge/internal/fridge"
	"servicefridge/internal/obs"
)

func instrumentedRun(t *testing.T, seed uint64) (*Result, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder(0)
	res := Run(quick(Config{Seed: seed, Scheme: ServiceFridge, BudgetFraction: 0.8, Events: rec}))
	return res, rec
}

// TestEventStreamDeterministic runs the same instrumented configuration
// twice and requires byte-identical JSONL — the per-run half of the
// cross-parallelism guarantee the CI determinism gate enforces.
func TestEventStreamDeterministic(t *testing.T) {
	encode := func() []byte {
		_, rec := instrumentedRun(t, 3)
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if len(a) == 0 {
		t.Fatal("instrumented run emitted no events")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event streams")
	}
}

// TestEventStreamShape checks the run emits the controller event kinds the
// timeline layer documents, keyed by non-decreasing sim time.
func TestEventStreamShape(t *testing.T) {
	res, rec := instrumentedRun(t, 3)
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events on a short run", rec.Dropped())
	}
	counts := map[string]int{}
	last := rec.Events()[0]
	for _, r := range rec.Events() {
		counts[r.Kind.String()]++
		if r.At < last.At {
			t.Fatalf("event at %v recorded after %v", r.At, last.At)
		}
		last = r
	}
	for _, kind := range []string{"zone_reassign", "power_sample", "migration"} {
		if counts[kind] == 0 {
			t.Fatalf("no %s events recorded (counts %v)", kind, counts)
		}
	}
	if got := counts["migration"]; uint64(got) < res.Orch.Migrations() {
		t.Fatalf("%d migration events for %d orchestrator migrations",
			got, res.Orch.Migrations())
	}
}

// TestInstrumentationDoesNotPerturbRun compares an instrumented run with
// a plain one: recording is passive, so every observable outcome must
// match exactly.
func TestInstrumentationDoesNotPerturbRun(t *testing.T) {
	plain := Run(quick(Config{Seed: 3, Scheme: ServiceFridge, BudgetFraction: 0.8}))
	inst, _ := instrumentedRun(t, 3)
	if plain.Executor.Completed() != inst.Executor.Completed() {
		t.Fatalf("completed %d vs %d", plain.Executor.Completed(), inst.Executor.Completed())
	}
	if plain.Summary("A") != inst.Summary("A") || plain.Summary("B") != inst.Summary("B") {
		t.Fatal("latency summaries diverge under instrumentation")
	}
	if plain.Fridge.Promotions() != inst.Fridge.Promotions() ||
		plain.Fridge.Demotions() != inst.Fridge.Demotions() ||
		plain.Orch.Migrations() != inst.Orch.Migrations() {
		t.Fatal("controller decisions diverge under instrumentation")
	}
}

// TestEventNamesMatchRun: BuildE binds the recorder's name tables so that
// a record's server index is cluster.Server.Index and its service index
// the spec's service ID, and the fridge names its zones' servers through
// them: the last tick's zone_reassign records list exactly the
// controller's zone servers.
func TestEventNamesMatchRun(t *testing.T) {
	res, rec := instrumentedRun(t, 3)
	spec := res.Config.Spec
	for _, s := range res.Cluster.Servers() {
		for id := range spec.ServiceNames() {
			var m struct{ Svc, Node string }
			line := rec.AppendJSONLine(nil, obs.Record{Kind: obs.Crash, Svc: int32(id), Server: int32(s.Index())})
			if err := json.Unmarshal(line, &m); err != nil {
				t.Fatal(err)
			}
			if m.Svc != spec.ServiceByID(id).Name || m.Node != s.Name() {
				t.Fatalf("service %d on server %d encode as %q on %q, want %q on %q",
					id, s.Index(), m.Svc, m.Node, spec.ServiceByID(id).Name, s.Name())
			}
		}
	}
	zones := map[string][]string{}
	for _, r := range rec.Events() {
		if r.Kind != obs.ZoneReassign {
			continue
		}
		var m struct{ Servers []string }
		if err := json.Unmarshal(rec.AppendJSONLine(nil, r), &m); err != nil {
			t.Fatal(err)
		}
		zones[r.Zone.String()] = m.Servers
	}
	for _, z := range []fridge.Zone{fridge.Cold, fridge.Warm, fridge.Hot} {
		var want []string
		for _, s := range res.Fridge.ZoneServers(z) {
			want = append(want, s.Name())
		}
		if !slices.Equal(zones[z.String()], want) {
			t.Fatalf("last %s zone_reassign lists %q, want %q", z, zones[z.String()], want)
		}
	}
}
