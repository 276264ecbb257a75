package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// fakeProbe is a scripted ControllerProbe. It scripts MCF by service
// name and keeps the service names it was bound with, so MCFInto can
// write them by ID.
type fakeProbe struct {
	zoneW, zoneGHz [3]float64
	warm           float64
	hasWarm        bool
	mcf            map[string]float64
	services       []string
	promos, demos  uint64
	ready          bool
}

func (f *fakeProbe) ZonePowerInto(out *[3]float64) bool {
	if !f.ready {
		return false
	}
	*out = f.zoneW
	return true
}

func (f *fakeProbe) ZoneFreqsInto(out *[3]float64) bool {
	if !f.ready {
		return false
	}
	*out = f.zoneGHz
	return true
}

func (f *fakeProbe) WarmUtilization() (float64, bool) { return f.warm, f.hasWarm }

func (f *fakeProbe) MCFInto(out []float64) bool {
	if !f.ready {
		return false
	}
	for id, s := range f.services {
		out[id] = f.mcf[s]
	}
	return true
}

func (f *fakeProbe) Promotions() uint64 { return f.promos }
func (f *fakeProbe) Demotions() uint64  { return f.demos }

// harness drives a bound Telemetry without an engine.
type harness struct {
	tel   *Telemetry
	now   sim.Time
	power float64
	cap   float64
	util  float64
	ok    bool
	mig   uint64
	probe *fakeProbe
}

func newHarness(t *testing.T, opt Options, probe *fakeProbe) *harness {
	t.Helper()
	h := &harness{tel: New(opt), cap: 300, probe: probe}
	b := Bindings{
		Now:      func() sim.Time { return h.now },
		Scheme:   "ServiceFridge",
		Regions:  []string{"A", "B"},
		Services: []string{"route", "ticketinfo"},
		Cluster: func() (float64, float64, float64, bool) {
			return h.power, h.cap, h.util, h.ok
		},
		Migrations: func() uint64 { return h.mig },
		Alpha:      0.75,
		Beta:       0.25,
	}
	if probe != nil {
		probe.services = b.Services
		b.Controller = probe
	}
	if err := h.tel.Bind(b); err != nil {
		t.Fatal(err)
	}
	return h
}

// tick advances one second of simulated time and samples.
func (h *harness) tick() {
	h.now += sim.Time(time.Second)
	h.tel.Sample()
}

func TestBindValidation(t *testing.T) {
	tel := New(Options{})
	if err := tel.Bind(Bindings{}); err == nil {
		t.Fatal("Bind without required funcs must fail")
	}
	h := newHarness(t, Options{}, nil)
	if err := h.tel.Bind(Bindings{
		Now:        func() sim.Time { return 0 },
		Cluster:    func() (float64, float64, float64, bool) { return 0, 0, 0, false },
		Migrations: func() uint64 { return 0 },
	}); err == nil {
		t.Fatal("second Bind must fail")
	}
}

func TestSampleCapturesSeriesAndControllerState(t *testing.T) {
	probe := &fakeProbe{
		zoneW:   [3]float64{80, 60, 110},
		zoneGHz: [3]float64{1.2, 1.8, 2.4},
		warm:    0.5, hasWarm: true,
		mcf:   map[string]float64{"route": 0.1, "ticketinfo": 0.7},
		ready: true,
	}
	h := newHarness(t, Options{WindowTicks: 3}, probe)
	h.power, h.util, h.ok = 250, 0.8, true
	h.mig = 4

	for i := 0; i < 20; i++ {
		h.tel.ObserveResponse("A", 40*time.Millisecond)
	}
	h.tel.ObserveResponse("B", 10*time.Millisecond)
	h.tel.ObserveExec(0, 2*time.Millisecond)
	h.tel.ObserveExec(7, time.Millisecond) // no such service: a span, but no window
	h.tick()

	if h.tel.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.tel.Len())
	}
	s := h.tel.Samples()[0]
	if s.At != sim.Time(time.Second) || !s.HasCluster || s.PowerW != 250 || s.HeadroomW != 50 {
		t.Fatalf("cluster fields: %+v", s)
	}
	if !s.HasZones || s.ZoneW != probe.zoneW || s.ZoneGHz != probe.zoneGHz {
		t.Fatalf("zone fields: %+v", s)
	}
	if !s.HasWarm || s.WarmUtil != 0.5 || s.Alpha != 0.75 || s.Beta != 0.25 {
		t.Fatalf("warm fields: %+v", s)
	}
	if !s.HasMCF || s.MCF[0] != 0.1 || s.MCF[1] != 0.7 {
		t.Fatalf("mcf fields: %+v", s)
	}
	if s.All.Count != 21 || s.Regions[0].Count != 20 || s.Regions[1].Count != 1 {
		t.Fatalf("series counts: all=%d A=%d B=%d", s.All.Count, s.Regions[0].Count, s.Regions[1].Count)
	}
	if s.Regions[0].P95 < 39*time.Millisecond || s.Regions[0].P95 > 42*time.Millisecond {
		t.Fatalf("region A p95 = %v, want ~40ms", s.Regions[0].P95)
	}
	if s.Services[0].Count != 1 || s.Services[1].Count != 0 {
		t.Fatalf("service counts: %+v", s.Services)
	}
	if s.Migrations != 4 {
		t.Fatalf("migrations = %d", s.Migrations)
	}

	// The window slides: after WindowTicks empty ticks the samples age out.
	h.tick()
	h.tick()
	h.tick()
	last := h.tel.Samples()[h.tel.Len()-1]
	if last.All.Count != 0 {
		t.Fatalf("window did not slide: count %d after %d empty ticks", last.All.Count, 3)
	}
}

func TestSampleRingWraps(t *testing.T) {
	h := newHarness(t, Options{Capacity: 4}, nil)
	for i := 0; i < 7; i++ {
		h.tick()
	}
	if h.tel.Len() != 4 || h.tel.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 4/3", h.tel.Len(), h.tel.Dropped())
	}
	s := h.tel.Samples()
	if s[0].At != sim.Time(4*time.Second) || s[3].At != sim.Time(7*time.Second) {
		t.Fatalf("retained window %v..%v, want 4s..7s", s[0].At, s[3].At)
	}
}

func TestSLOMonitorHysteresisAndReport(t *testing.T) {
	h := newHarness(t, Options{
		WindowTicks: 1, // no smoothing: each tick sees only its own samples
		SLO: SLOOptions{
			Target: 100 * time.Millisecond, Quantile: 0.95,
			TripTicks: 2, ClearTicks: 2,
			Grace: 3 * time.Second,
		},
	}, nil)
	h.ok = true

	slow := func() { h.tel.ObserveResponse("A", 500*time.Millisecond) }
	fast := func() { h.tel.ObserveResponse("A", 10*time.Millisecond) }

	// Over target during grace: must not count.
	slow()
	h.tick() // t=1s, grace
	slow()
	h.tick() // t=2s, grace
	if h.tel.Alerts().Len() != 0 {
		t.Fatal("violations counted during grace")
	}
	// Post-grace: two consecutive over-target ticks trip (for series
	// "all" and "region:A" both).
	slow()
	h.tick() // t=3s, over #1
	if h.tel.Alerts().Len() != 0 {
		t.Fatal("tripped before TripTicks consecutive ticks")
	}
	slow()
	h.tick() // t=4s, over #2 -> violation
	evs := h.tel.Alerts().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d alerts, want 2 (all + region:A)", len(evs))
	}
	if v := evs[0]; v.Kind != obs.QoSViolation || v.Svc != 0 || v.Quantile != obs.P95 || v.Bound != 100 || v.Value <= 100 {
		t.Fatalf("violation event %+v", v)
	}
	report := h.tel.SLOReport()
	if report[0].Series != "all" || report[0].FirstViolation != sim.Time(4*time.Second) {
		t.Fatalf("report[all] = %+v", report[0])
	}
	if !report[0].HasHeadroom || report[0].HeadroomAtFirst != 300 {
		t.Fatalf("headroom at first violation: %+v", report[0])
	}
	if report[2].Series != "region:B" || report[2].FirstViolation != -1 {
		t.Fatalf("report[region:B] = %+v", report[2])
	}

	// One fast tick is not enough to clear...
	fast()
	h.tick() // t=5s
	if got := h.tel.Samples()[h.tel.Len()-1].SLOActive; got != 2 {
		t.Fatalf("SLOActive = %d after one under tick, want 2", got)
	}
	// ...two are.
	fast()
	h.tick() // t=6s
	evs = h.tel.Alerts().Events()
	if len(evs) != 4 {
		t.Fatalf("got %d alerts after recovery, want 4", len(evs))
	}
	if evs[2].Kind != obs.QoSRecovered {
		t.Fatalf("expected recovery events, got %+v", evs[2])
	}
	if got := h.tel.Samples()[h.tel.Len()-1].SLOActive; got != 0 {
		t.Fatalf("SLOActive = %d after recovery, want 0", got)
	}
	rep := h.tel.SLOReport()
	// Violation ticks: t=4 (trip) and t=5 (still active); eval ticks 3..6.
	if rep[0].ViolationTicks != 2 || rep[0].EvalTicks != 4 || rep[0].Active {
		t.Fatalf("final report[all] = %+v", rep[0])
	}
}

func TestBudgetHeadroomAlert(t *testing.T) {
	h := newHarness(t, Options{SLO: SLOOptions{HeadroomFrac: 0.10}}, nil)
	h.ok = true
	h.power = 280 // headroom 20 of 300 = 6.7% < 10%
	h.tick()
	evs := h.tel.Alerts().Events()
	if len(evs) != 1 {
		t.Fatalf("got %d alerts, want 1", len(evs))
	}
	if hl := evs[0]; hl.Kind != obs.BudgetHeadroomLow || hl.Value != 20 || hl.Bound != 300 {
		t.Fatalf("alert %+v", hl)
	}
	// Still low: no re-fire.
	h.tick()
	if h.tel.Alerts().Len() != 1 {
		t.Fatal("headroom alert re-fired without re-arming")
	}
	// Recovers past 2x the fraction (>= 60W headroom): re-arms...
	h.power = 230
	h.tick()
	// ...and fires again on the next crossing.
	h.power = 290
	h.tick()
	if h.tel.Alerts().Len() != 2 {
		t.Fatalf("got %d alerts after re-arm cycle, want 2", h.tel.Alerts().Len())
	}
}

func TestSampleZeroAllocs(t *testing.T) {
	probe := &fakeProbe{ready: true, hasWarm: true, mcf: map[string]float64{}}
	h := newHarness(t, Options{}, probe)
	h.ok = true
	h.power = 250
	d := time.Millisecond
	allocs := testing.AllocsPerRun(500, func() {
		d += 731 * time.Microsecond
		h.tel.ObserveResponse("A", d)
		h.tel.ObserveResponse("B", d/2)
		h.tel.ObserveExec(0, d/4)
		h.tick()
	})
	if allocs != 0 {
		t.Fatalf("sampling path allocated %.3f objects/op, want 0", allocs)
	}
}

func TestCSVDeterministicAndParsable(t *testing.T) {
	run := func() string {
		probe := &fakeProbe{
			zoneW: [3]float64{80, 60, 110}, zoneGHz: [3]float64{1.2, 1.8, 2.4},
			warm: 0.5, hasWarm: true,
			mcf: map[string]float64{"route": 0.125, "ticketinfo": 0.625}, ready: true,
		}
		h := newHarness(t, Options{}, probe)
		for i := 0; i < 5; i++ {
			if i == 2 {
				h.ok, h.power, h.util = true, 251.375, 0.8125
			}
			h.tel.ObserveResponse("A", time.Duration(30+i)*time.Millisecond)
			h.tel.ObserveExec(0, time.Millisecond)
			h.tick()
		}
		var buf bytes.Buffer
		if err := h.tel.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("CSV export is not deterministic across identical runs")
	}
	rows, err := csv.NewReader(strings.NewReader(a)).ReadAll()
	if err != nil {
		t.Fatalf("export is not valid CSV: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d CSV rows, want header + 5", len(rows))
	}
	header := rows[0]
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("row width %d != header width %d", len(row), len(header))
		}
	}
	// Pre-meter rows leave cluster cells empty; post-meter rows fill them.
	if rows[1][1] != "" || rows[3][1] == "" {
		t.Fatalf("power_w cells: pre=%q post=%q", rows[1][1], rows[3][1])
	}
	if rows[1][0] != "1" || rows[5][0] != "5" {
		t.Fatalf("t_s cells: %q..%q", rows[1][0], rows[5][0])
	}
}

// parsePromText is a minimal Prometheus text-format validator: every
// non-comment line must be `name{labels} value` with a parsable float
// value; TYPE lines must precede their metric's samples.
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	typed := map[string]bool{}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "gauge" && parts[3] != "counter") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
		}
		if !typed[name] {
			t.Fatalf("sample %q before its TYPE line", line)
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		out[key] = val
	}
	return out
}

func TestHTTPEndpoints(t *testing.T) {
	probe := &fakeProbe{
		zoneW: [3]float64{80, 60, 110}, zoneGHz: [3]float64{1.2, 1.8, 2.4},
		warm: 0.5, hasWarm: true,
		mcf: map[string]float64{"route": 0.125, "ticketinfo": 0.625}, ready: true,
	}
	h := newHarness(t, Options{}, probe)
	h.tel.EnablePublishing()
	srv := httptest.NewServer(NewHandler(h.tel))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Before the first sample: healthz is up, metrics report fridge_up 0.
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if m := parsePromText(t, body); m["fridge_up"] != 0 {
		t.Fatalf("fridge_up = %v before first sample", m["fridge_up"])
	}

	h.ok, h.power, h.util = true, 251.375, 0.8125
	h.mig = 3
	for i := 0; i < 30; i++ {
		h.tel.ObserveResponse("A", 150*time.Millisecond)
		h.tel.ObserveResponse("B", 10*time.Millisecond)
		h.tel.ObserveExec(0, 2*time.Millisecond)
	}
	h.tick()

	_, body = get("/metrics")
	m := parsePromText(t, body)
	checks := map[string]float64{
		"fridge_up":                                        1,
		"fridge_sim_time_seconds":                          1,
		"fridge_power_watts":                               251.375,
		"fridge_power_budget_watts":                        300,
		"fridge_zone_power_watts{zone=\"hot\"}":            80,
		"fridge_zone_frequency_ghz{zone=\"cold\"}":         2.4,
		"fridge_warm_zone_utilization":                     0.5,
		"fridge_warm_zone_alpha":                           0.75,
		"fridge_latency_window_count{series=\"all\"}":      60,
		"fridge_latency_window_count{series=\"region:A\"}": 30,
		"fridge_service_mcf{service=\"ticketinfo\"}":       0.625,
		"fridge_requests_total":                            60,
		"fridge_migrations_total":                          3,
	}
	for key, want := range checks {
		got, okKey := m[key]
		if !okKey {
			t.Fatalf("metric %q missing from exposition:\n%s", key, body)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
	if m[`fridge_latency_seconds{series="region:A",quantile="0.95"}`] < 0.14 {
		t.Fatalf("region A p95 = %v s, want ~0.15", m[`fridge_latency_seconds{series="region:A",quantile="0.95"}`])
	}

	code, body = get("/status")
	if code != 200 {
		t.Fatalf("/status = %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if doc["scheme"] != "ServiceFridge" || doc["power_w"] != 251.375 {
		t.Fatalf("/status doc: %v", doc)
	}
	if _, okKey := doc["mcf"].(map[string]any); !okKey {
		t.Fatalf("/status missing mcf map: %v", doc)
	}
}

func TestPromEscape(t *testing.T) {
	var buf bytes.Buffer
	p := &promWriter{buf: &buf, headed: map[string]bool{}}
	p.gauge("m", "h", 1, "l", "a\\b\"c\nd")
	want := `m{l="a\\b\"c\nd"} 1`
	if got := strings.Split(buf.String(), "\n")[2]; got != want {
		t.Fatalf("escaped line %q, want %q", got, want)
	}
}
