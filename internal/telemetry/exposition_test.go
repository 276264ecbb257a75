package telemetry

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/prof"
)

// Prometheus text exposition conformance for the full /metrics document
// (snapshot families + the go_*/build/phase process families): names
// and labels must be legal, every family must carry exactly one HELP
// and one TYPE line before its first sample, no series may repeat, and
// counters must be monotone non-decreasing across scrapes.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([^{ ]+)(\{([^}]*)\})? (\S+)$`)
	labelPairRe  = regexp.MustCompile(`^([^=]+)="((?:[^"\\]|\\.)*)"$`)
)

// expoDoc is one parsed exposition document.
type expoDoc struct {
	types   map[string]string  // family -> gauge|counter
	samples map[string]float64 // full series key -> value
}

// parseExposition validates one document's syntax and structure.
func parseExposition(t *testing.T, body string) expoDoc {
	t.Helper()
	doc := expoDoc{types: map[string]string{}, samples: map[string]float64{}}
	helped := map[string]bool{}
	sampled := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			if helped[name] {
				t.Fatalf("second HELP line for family %s", name)
			}
			if sampled[name] {
				t.Fatalf("HELP for %s after its first sample", name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "gauge" && parts[3] != "counter") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			name := parts[2]
			if _, dup := doc.types[name]; dup {
				t.Fatalf("second TYPE line for family %s", name)
			}
			if sampled[name] {
				t.Fatalf("TYPE for %s after its first sample", name)
			}
			doc.types[name] = parts[3]
		case strings.HasPrefix(line, "#"):
			// Free-form comments are legal; this exporter emits none.
			t.Fatalf("unexpected comment line: %q", line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line: %q", line)
			}
			name, labels, valStr := m[1], m[3], m[4]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("illegal metric name %q", name)
			}
			if _, err := strconv.ParseFloat(valStr, 64); err != nil {
				t.Fatalf("unparsable value in %q: %v", line, err)
			}
			if labels != "" {
				for _, pair := range strings.Split(labels, ",") {
					lm := labelPairRe.FindStringSubmatch(pair)
					if lm == nil {
						t.Fatalf("malformed label pair %q in %q", pair, line)
					}
					if !labelNameRe.MatchString(lm[1]) {
						t.Fatalf("illegal label name %q in %q", lm[1], line)
					}
				}
			}
			if doc.types[name] == "" {
				t.Fatalf("sample %q before its TYPE line", line)
			}
			if !helped[name] {
				t.Fatalf("sample %q before its HELP line", line)
			}
			sampled[name] = true
			key := m[1] + m[2]
			if _, dup := doc.samples[key]; dup {
				t.Fatalf("duplicate series %q", key)
			}
			doc.samples[key] = mustFloat(t, valStr)
		}
	}
	return doc
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPrometheusExpositionConformance(t *testing.T) {
	prof.Reset()
	defer prof.Reset()
	pr := prof.NewDetached("conformance")
	prof.Register(pr)
	spin := func() {
		pr.Enter(prof.Tick)
		time.Sleep(time.Millisecond)
		pr.Exit()
	}
	spin()

	probe := &fakeProbe{
		zoneW: [3]float64{80, 60, 110}, zoneGHz: [3]float64{1.2, 1.8, 2.4},
		warm: 0.5, hasWarm: true,
		mcf: map[string]float64{"route": 0.125, "ticketinfo": 0.625}, ready: true,
	}
	h := newHarness(t, Options{}, probe)
	h.tel.EnablePublishing()
	h.ok, h.power, h.util = true, 251.375, 0.8125
	for i := 0; i < 20; i++ {
		h.tel.ObserveResponse("A", 150*time.Millisecond)
		h.tel.ObserveExec(0, 2*time.Millisecond)
	}
	h.tick()

	scrape := func() string {
		var buf bytes.Buffer
		WriteMetricsTo(&buf, h.tel.LoadSnapshot())
		WriteProcessMetricsTo(&buf)
		return buf.String()
	}

	first := parseExposition(t, scrape())
	// Advance everything a counter tracks, then scrape again.
	spin()
	for i := 0; i < 20; i++ {
		h.tel.ObserveResponse("A", 150*time.Millisecond)
	}
	h.tick()
	second := parseExposition(t, scrape())

	// The new process families must be present alongside the snapshot
	// ones, with the expected types.
	wantTypes := map[string]string{
		"fridge_up":                    "gauge",
		"fridge_requests_total":        "counter",
		"fridge_build_info":            "gauge",
		"go_goroutines":                "gauge",
		"go_sched_gomaxprocs_threads":  "gauge",
		"go_memstats_heap_alloc_bytes": "gauge",
		"go_gc_cycles_total":           "counter",
		"go_gc_pause_seconds_total":    "counter",
		"fridge_phase_seconds_total":   "counter",
		"fridge_phase_calls_total":     "counter",
	}
	for name, typ := range wantTypes {
		for _, doc := range []expoDoc{first, second} {
			if got := doc.types[name]; got != typ {
				t.Fatalf("family %s: type %q, want %q", name, got, typ)
			}
		}
	}
	if _, ok := first.samples[`fridge_phase_seconds_total{phase="tick"}`]; !ok {
		t.Fatalf("fridge_phase_seconds_total{phase=\"tick\"} missing")
	}

	// Counter families must be monotone non-decreasing between scrapes.
	for key, v1 := range first.samples {
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		if first.types[name] != "counter" {
			continue
		}
		v2, ok := second.samples[key]
		if !ok {
			t.Fatalf("counter series %q disappeared on the second scrape", key)
		}
		if v2 < v1 {
			t.Fatalf("counter %q went backwards: %v -> %v", key, v1, v2)
		}
	}
	// And the ones we actively advanced must strictly increase.
	for _, key := range []string{
		"fridge_requests_total",
		`fridge_phase_seconds_total{phase="tick"}`,
		`fridge_phase_calls_total{phase="tick"}`,
	} {
		if second.samples[key] <= first.samples[key] {
			t.Fatalf("%s did not advance: %v -> %v", key, first.samples[key], second.samples[key])
		}
	}

	// The build block must also appear on /status (and carry the same
	// revision the metric labels do).
	var status bytes.Buffer
	if err := writeStatusWithBuild(&status, h.tel.LoadSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status.String(), `"build":{"revision":"`) {
		t.Fatalf("/status lacks a build block: %s", status.String())
	}
}
