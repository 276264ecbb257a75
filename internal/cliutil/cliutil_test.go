package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/obs"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("A=30, B=20,C=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["A"] != 30 || m["B"] != 20 {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"", "A", "A=x", "A=-1", "A=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestLoadSpec(t *testing.T) {
	study, err := LoadSpec("study", "")
	if err != nil || study.Region("A") == nil {
		t.Fatalf("study spec: %v", err)
	}
	full, err := LoadSpec("full", "")
	if err != nil || len(full.ServiceNames()) <= len(study.ServiceNames()) {
		t.Fatalf("full spec not larger: %v", err)
	}
	if _, err := LoadSpec("nope", ""); err == nil {
		t.Fatal("unknown app name accepted")
	}
	if _, err := LoadSpec("study", "/does/not/exist.json"); err == nil {
		t.Fatal("missing spec path accepted")
	}
}

func TestParseSweep(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"1.0,0.9,0.8,0.75", []float64{1, 0.9, 0.8, 0.75}}, // canonical descending
		{"0.75, 0.8 ,1.0", []float64{0.75, 0.8, 1}},        // ascending + spaces
		{"0.9", []float64{0.9}},
		{"0.9,,1.0", []float64{0.9, 1}}, // empty cells skipped
	}
	for _, tc := range good {
		got, err := ParseSweep(tc.in)
		if err != nil {
			t.Errorf("ParseSweep(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSweep(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}

	bad := []string{
		"",            // empty spec
		" , ,",        // only empty cells
		"0.9,0.9",     // duplicate
		"1.0,0.9,1.0", // duplicate, non-adjacent
		"0.9,x",       // ill-formed number
		"0.9,0",       // zero fraction
		"-0.5",        // negative
		"1.5",         // above full budget
		"NaN",         // not a number
		"1.0,nan",     // ditto, any case
		"Inf",         // infinite
	}
	for _, in := range bad {
		if got, err := ParseSweep(in); err == nil {
			t.Errorf("ParseSweep(%q) accepted: %v", in, got)
		}
	}
}

func TestExportFlagsParsing(t *testing.T) {
	var e ExportFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e.Bind(fs, 0.05)
	if err := fs.Parse([]string{"-events", "ev.jsonl", "-traces", "tr.json"}); err != nil {
		t.Fatal(err)
	}
	if e.Events != "ev.jsonl" || e.Traces != "tr.json" || e.TraceSample != 0.05 {
		t.Fatalf("parsed %+v", e)
	}
}

func TestExportFlagsStride(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want int
	}{{1, 1}, {0, 1}, {0.5, 2}, {0.05, 20}, {-1, 1}} {
		e := ExportFlags{TraceSample: tc.rate}
		if got := e.Stride(); got != tc.want {
			t.Fatalf("Stride(%v) = %d, want %d", tc.rate, got, tc.want)
		}
	}
}

func TestTelemetryFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var tf TelemetryFlags
	tf.BindServe(fs)
	if err := fs.Parse([]string{"-timeseries", "out.csv", "-slo-target", "50ms"}); err != nil {
		t.Fatal(err)
	}
	if tf.Timeseries != "out.csv" || tf.SLOTarget != 50*time.Millisecond {
		t.Fatalf("parsed %+v", tf)
	}

	// The plain Bind must not define the serve-only flags.
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	var tf2 TelemetryFlags
	tf2.Bind(fs2)
	if err := fs2.Parse([]string{"-listen", ":0"}); err == nil {
		t.Fatal("-listen accepted by the non-serving flag set")
	}
}

func TestCheckWritable(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "out.jsonl")
	if err := CheckWritable(good, "", filepath.Join(dir, "two.csv")); err != nil {
		t.Fatalf("writable paths rejected: %v", err)
	}
	if _, err := os.Stat(good); err != nil {
		t.Fatalf("probe did not create the file: %v", err)
	}
	if err := CheckWritable(filepath.Join(dir, "no", "such", "dir", "out.jsonl")); err == nil {
		t.Fatal("missing parent directory accepted")
	}
	if err := CheckWritable(dir); err == nil {
		t.Fatal("directory path accepted as an export file")
	}
}

func TestWarnDropped(t *testing.T) {
	var b strings.Builder
	rec := obs.NewRecorder(1)
	WarnDropped(&b, rec)
	if b.Len() != 0 {
		t.Fatalf("warned with nothing dropped: %q", b.String())
	}
	rec.Emit(1, obs.Record{Kind: obs.Crash})
	rec.Emit(2, obs.Record{Kind: obs.Crash})
	WarnDropped(&b, rec)
	if !strings.Contains(b.String(), "overwrote 1 events") {
		t.Fatalf("missing drop warning: %q", b.String())
	}
	WarnDropped(io.Discard, nil) // nil recorder is inert
}
