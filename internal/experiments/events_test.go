package experiments

import (
	"bytes"
	"strings"
	"testing"

	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

func TestEventTablesFromSyntheticStream(t *testing.T) {
	const m, b, c, d = 0, 1, 2, 3 // server indices
	rec := obs.NewRecorder(0)
	rec.Bind(obs.Names{Servers: []string{"m", "b", "c", "d"}, Services: []string{"route"}})
	rec.Emit(1e9, obs.Record{Kind: obs.PowerSample, Zone: obs.ZoneCluster, Value: 310, Bound: 350})
	rec.EmitZone(1e9, obs.ZoneCold, []int32{m, b}, obs.Cause{})
	rec.EmitZone(1e9, obs.ZoneWarm, []int32{c}, obs.Cause{})
	rec.EmitZone(1e9, obs.ZoneHot, []int32{d}, obs.Cause{})
	rec.EmitZone(2e9, obs.ZoneCold, []int32{m, b}, obs.Cause{})
	rec.EmitZone(2e9, obs.ZoneWarm, []int32{c}, obs.Cause{})
	rec.EmitZone(2e9, obs.ZoneHot, []int32{d}, obs.Cause{})
	rec.Emit(2e9, obs.Record{Kind: obs.FreqChange, Server: d, Zone: obs.ZoneHot, Value: 1.8})
	rec.Emit(2e9, obs.Record{Kind: obs.Migration, Svc: 0, From: d, To: b, Zone: obs.ZoneCold})

	tables := eventTables(rec.Events())
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	narrative := tables[0].String()
	// Both instants changed something (first snapshot, then a DVFS step
	// plus a migration), so both are narrative rows.
	if tables[0].NumRows() != 2 {
		t.Fatalf("narrative rows = %d, want 2\n%s", tables[0].NumRows(), narrative)
	}
	if !strings.Contains(narrative, "1.8") {
		t.Fatalf("hot-zone frequency missing from narrative:\n%s", narrative)
	}
	counts := tables[1].String()
	for _, want := range []string{"migration", "freq_change", "zone_reassign"} {
		if !strings.Contains(counts, want) {
			t.Fatalf("counts table missing %s:\n%s", want, counts)
		}
	}
}

func TestEventTablesSkipsUnchangedTicks(t *testing.T) {
	rec := obs.NewRecorder(0)
	for i := int64(1); i <= 3; i++ {
		rec.EmitZone(sim.Time(1e9*i), obs.ZoneCold, []int32{0}, obs.Cause{})
		rec.EmitZone(sim.Time(1e9*i), obs.ZoneWarm, []int32{1}, obs.Cause{})
		rec.EmitZone(sim.Time(1e9*i), obs.ZoneHot, []int32{2}, obs.Cause{})
	}
	tables := eventTables(rec.Events())
	// Only the first tick changes state; identical later ticks collapse.
	if tables[0].NumRows() != 1 {
		t.Fatalf("narrative rows = %d, want 1\n%s", tables[0].NumRows(), tables[0])
	}
}

func TestExtEventsRegistered(t *testing.T) {
	if _, ok := ByID("ext-events"); !ok {
		t.Fatal("ext-events missing from the extension registry")
	}
}

// TestExportEventsJSONLParallelismIndependent is the acceptance criterion
// in miniature: the exported stream must be byte-identical whatever the
// executor's worker-pool width.
func TestExportEventsJSONLParallelismIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the canonical instrumented simulation twice")
	}
	export := func(width int) []byte {
		prev := Parallelism()
		SetParallelism(width)
		defer SetParallelism(prev)
		var buf bytes.Buffer
		if err := ExportEventsJSONL(1, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := export(1), export(8)
	if len(seq) == 0 {
		t.Fatal("export produced no events")
	}
	if !bytes.Equal(seq, par) {
		t.Fatal("event JSONL differs between -parallel 1 and -parallel 8")
	}
}
