package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/sim"
)

// goldenRecorder emits one record of every kind, in a fixed order, at
// ascending sim times — the reference stream behind the golden file.
func goldenRecorder() *Recorder {
	r := NewRecorder(0)
	r.Bind(Names{
		Servers:  []string{"manager", "serverB", "serverC", "serverD"},
		Services: []string{"route", "config", "seat"},
		Series:   []string{"region:B"},
	})
	const low, high Level = 0, 2
	sec := func(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }
	r.EmitZone(sec(1), ZoneCold, []int32{0, 1}, Cause{})
	r.EmitZone(sec(1), ZoneHot, nil, Cause{})
	r.Emit(sec(1), Record{Kind: FreqChange, Server: 2, Zone: ZoneHot, Value: 1.8})
	r.Emit(sec(1), Record{Kind: PowerSample, Zone: ZoneCluster, Value: 123.45, Bound: 350.5})
	r.Emit(sec(2), Record{Kind: Migration, Svc: 0, From: 2, To: 1, Zone: ZoneCold})
	r.Emit(sec(2), Record{Kind: Promote, Svc: 0, Level: high, Reason: WarmUtilHigh})
	r.Emit(sec(2.5), Record{Kind: Demote, Svc: 1, Level: low, Reason: PowerShortage})
	r.Emit(sec(3), Record{Kind: Crash, Svc: 1, Server: 3})
	r.Emit(sec(3.5), Record{Kind: Restart, Svc: 1, Server: 3})
	r.Emit(sec(4), Record{Kind: Scale, Svc: 2, From: 1, To: 3})
	r.Emit(sec(5), Record{Kind: BudgetHeadroomLow, Value: 12.5, Bound: 350.5})
	r.Emit(sec(5), Record{Kind: QoSViolation, Svc: 0, Quantile: P95, Value: 131.072, Bound: 100})
	r.Emit(sec(6), Record{Kind: QoSRecovered, Svc: 0, Quantile: P95, Value: 88.25, Bound: 100})
	return r
}

// TestJSONLGolden pins the exact wire encoding: field order, float
// formatting, quoting. Any drift breaks the committed golden and, in CI,
// the cross-width event diff this encoding underwrites.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile("testdata/events.golden.jsonl", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/events.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL encoding drifted from golden.\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestJSONLIsValidJSONAndMonotonic checks every line parses as JSON, that
// "at" never decreases and "seq" strictly increases, and that the three
// header fields lead every line in fixed order.
func TestJSONLIsValidJSONAndMonotonic(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lastAt, lastSeq int64 = -1, -1
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"at":`) || !strings.Contains(line, `"seq":`) {
			t.Fatalf("line does not lead with at/seq: %s", line)
		}
		var m struct {
			At   int64  `json:"at"`
			Seq  int64  `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if m.At < lastAt {
			t.Fatalf("sim time went backwards: %d after %d", m.At, lastAt)
		}
		if m.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing: %d after %d", m.Seq, lastSeq)
		}
		if m.Kind == "" {
			t.Fatalf("line without kind: %s", line)
		}
		lastAt, lastSeq = m.At, m.Seq
	}
	if lastSeq != 12 {
		t.Fatalf("expected 13 lines, last seq %d", lastSeq)
	}
}

func TestAppendJSONLineEscapesStrings(t *testing.T) {
	r := NewRecorder(1)
	r.Bind(Names{Servers: []string{"n\n"}, Services: []string{`sv"c`}})
	b := r.AppendJSONLine(nil, Record{Kind: Crash, Svc: 0, Server: 0})
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("escaped line does not parse: %v (%s)", err, b)
	}
	if m["svc"] != `sv"c` || m["node"] != "n\n" {
		t.Fatalf("round-trip lost content: %v", m)
	}
}
