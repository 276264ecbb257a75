package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/schemes"
	"servicefridge/internal/server"
)

const smokeDir = "../../testdata/service_smoke"

// fridge runs the command and returns its stdout, failing on a non-zero
// exit.
func fridge(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("fridge %v: exit %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// goldenReport returns the report field of a committed control-plane
// /result body.
func goldenReport(t *testing.T, name string) string {
	t.Helper()
	body, err := os.ReadFile(filepath.Join(smokeDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Report
}

// TestScenarioMatchesSession runs the service-smoke scenario through
// -scenario and through the equivalent flags: both must print exactly the
// report the control plane committed for that scenario, and a flag set
// on top of the file must act as it does on its own.
func TestScenarioMatchesSession(t *testing.T) {
	scenario := filepath.Join(smokeDir, "scenario.json")
	flags := []string{"-scheme", "ServiceFridge", "-budget", "0.8", "-workers", "20",
		"-warmup", "1s", "-duration", "3s", "-seed", "3"}

	got := fridge(t, "-scenario", scenario)
	if want := goldenReport(t, "result.golden.json"); got != want {
		t.Fatalf("-scenario stdout differs from the session report:\n--- fridge\n%s\n--- session\n%s", got, want)
	}
	if byFlags := fridge(t, flags...); byFlags != got {
		t.Fatalf("flags and -scenario differ:\n--- flags\n%s\n--- scenario\n%s", byFlags, got)
	}

	seed4 := fridge(t, "-scenario", scenario, "-seed", "4")
	if seed4 == got {
		t.Fatal("-seed 4 did not override the scenario's seed")
	}
	flags[len(flags)-1] = "4"
	if byFlags := fridge(t, flags...); byFlags != seed4 {
		t.Fatalf("-scenario -seed 4 differs from the flags with -seed 4:\n--- flags\n%s\n--- scenario\n%s", byFlags, seed4)
	}

	trace := fridge(t, "-scenario", filepath.Join(smokeDir, "scenario_trace.json"))
	if want := goldenReport(t, "result_trace.golden.json"); trace != want {
		t.Fatalf("trace scenario stdout differs from the session report:\n--- fridge\n%s\n--- session\n%s", trace, want)
	}
}

// TestCLIParity requires fridge with no flags to print the report a
// control-plane session of the empty scenario returns.
func TestCLIParity(t *testing.T) {
	mux := http.NewServeMux()
	server.New(server.Options{}).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(post.Body).Decode(&created)
	post.Body.Close()
	if err != nil || post.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, %v", post.StatusCode, err)
	}
	var doc struct {
		State  string `json:"state"`
		Report string `json:"report"`
	}
	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/sessions/" + created.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); doc.State != "done"; time.Sleep(2 * time.Millisecond) {
		if doc.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("session ended in state %q", doc.State)
		}
		get("/status")
	}
	get("/result")

	if got := fridge(t); got != doc.Report {
		t.Fatalf("fridge differs from the session report:\n--- fridge\n%s\n--- session\n%s", got, doc.Report)
	}
}

// TestFlagDurationsExact: flag durations reach the engine to the
// nanosecond through the scenario's float seconds.
func TestFlagDurationsExact(t *testing.T) {
	out := fridge(t, "-warmup", "1.001s", "-duration", "2.999s", "-workers", "5")
	if header := strings.SplitN(out, "\n", 2)[0]; header != "scheme=Baseline budget=100% workers=5 regions=[A B] sim=4s" {
		t.Fatalf("header %q, want sim=4s", header)
	}
}

// TestSpecFlag runs the social network from a JSON profile: the
// custom-spec path must run that profile (not the default study app) and
// give the bytes of the built-in family.
func TestSpecFlag(t *testing.T) {
	var profile bytes.Buffer
	if _, err := app.SocialNetwork().WriteTo(&profile); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "socialnet.json")
	if err := os.WriteFile(path, profile.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	scenario := filepath.Join(smokeDir, "scenario.json")
	got, want := fridge(t, "-scenario", scenario, "-spec", path), fridge(t, "-scenario", scenario, "-app", "socialnet")
	if got != want {
		t.Fatalf("-spec socialnet.json differs from -app socialnet:\n--- spec\n%s\n--- built-in\n%s", got, want)
	}
}

// TestRejections checks the inputs fridge refuses with exit 1 before
// running or binding anything.
func TestRejections(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-app", "socialnet", "-mixA", "2"}, []string{"mixA/mixB need regions A and B"}},
		{[]string{"-scenario", "../../testdata/scenarios/flash_crowd.json", "-workload", "diurnal"},
			[]string{"already has a workload section"}},
		{[]string{"-scheme", "NoSuchScheme"}, append([]string{`"NoSuchScheme"`}, schemes.Names()...)},
		{[]string{"-serve"}, []string{"-serve requires -listen"}},
	}
	// Non-finite values pass plain range checks, so each is named
	// explicitly: none may run (a NaN cap, a mix that sends every request
	// to one region).
	for _, tc := range []struct{ flag, value, want string }{
		{"-budget", "NaN", "budget NaN must be in (0, 1]"},
		{"-sweep", "NaN", "-sweep fraction NaN must be in (0, 1]"},
		{"-mixA", "NaN", "mixA NaN and mixB 1 must be finite"},
		{"-mixA", "Inf", "mixA +Inf and mixB 1 must be finite"},
	} {
		cases = append(cases, struct {
			args []string
			want []string
		}{[]string{tc.flag, tc.value}, []string{tc.want}})
	}
	// A duration past time.Duration's range is an input error naming its
	// field, not a wrapped negative duration that runs and misreports; so
	// is a positive duration that rounds to 0 ns (the engine would run its
	// default instead), a mix whose total overflows and a trace naming a
	// region the application lacks.
	for _, spec := range []struct{ body, field string }{
		{`{"telemetry":{"slo_target_ms":1e13}}`, "telemetry.slo_target_ms 1e+13 overflows a time.Duration"},
		{`{"warmup_s":9.3e9}`, "warmup_s 9.3e+09 overflows a time.Duration"},
		{`{"warmup_s":1e-12,"duration_s":2}`, "warmup_s 1e-12 is shorter than a nanosecond"},
		{`{"duration_s":1e-12}`, "duration_s 1e-12 is shorter than a nanosecond"},
		{`{"tick_ms":1e-7}`, "tick_ms 1e-07 is shorter than a nanosecond"},
		{`{"telemetry":{"interval_ms":1e-7}}`, "telemetry.interval_ms 1e-07 is shorter than a nanosecond"},
		{`{"telemetry":{"slo_target_ms":1e-7}}`, "telemetry.slo_target_ms 1e-07 is shorter than a nanosecond"},
		{`{"mix":{"A":1e308,"B":1e308}}`, "mix weights sum to +Inf"},
		{`{"workload":{"trace":"t_s,region,rate\n0,Z,1"}}`, `trace region "Z" is not in the application`},
		{`{"duration_s":1}}`, "trailing data after the JSON document"},
		{`{"duration_s":1}]`, "trailing data after the JSON document"},
		{`{"duration_s":1} junk`, "trailing data after the JSON document"},
	} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(spec.body), 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			args []string
			want []string
		}{[]string{"-scenario", path}, []string{spec.field}})
	}
	// A JSONL trace line holding two setpoints is refused by line, not
	// read as its first.
	trace := filepath.Join(t.TempDir(), "two.jsonl")
	if err := os.WriteFile(trace, []byte(`{"t_s":0,"region":"A","rate":1}{"t_s":5,"region":"A","rate":9}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		args []string
		want []string
	}{[]string{"-trace", trace}, []string{"trace line 1: trailing data"}})
	// An application profile that parses must also run: a negative or
	// overflowing demand, or a jitter whose log-normal σ² overflows (every
	// draw NaN), is refused by name instead of crashing the run.
	for _, p := range []struct{ apiExecMs, jitter, field string }{
		{"-1", "0.08", `region "A" apiExecMs -1 must not be negative`},
		{"1e300", "0.08", `region "A" apiExecMs 1e+300 must be finite and fit a time.Duration`},
		{"2", "1e200", `service "f" jitter 1e+200`},
	} {
		profile := `{"services":[{"name":"api","kind":"api","cpuShare":0.5},` +
			`{"name":"f","kind":"function","cpuShare":0.8,"jitter":` + p.jitter + `}],"regions":[` +
			`{"name":"A","api":"api","apiExecMs":` + p.apiExecMs + `,"stages":[[{"service":"f","times":1,"execMs":1}]]},` +
			`{"name":"B","api":"api","apiExecMs":2,"stages":[[{"service":"f","times":1,"execMs":1}]]}]}`
		path := filepath.Join(t.TempDir(), "profile.json")
		if err := os.WriteFile(path, []byte(profile), 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			args []string
			want []string
		}{[]string{"-spec", path, "-workers", "2", "-warmup", "1s", "-duration", "2s"}, []string{p.field}})
	}
	for _, flag := range []string{"-scenario", "-events", "-traces", "-ledger", "-timeseries", "-profile", "-cpuprofile", "-memprofile"} {
		cases = append(cases, struct {
			args []string
			want []string
		}{[]string{"-serve", "-listen", "127.0.0.1:0", flag, out}, []string{"-serve runs nothing locally, so " + flag}})
	}
	for _, tc := range cases {
		// Serve mode must not touch an output file it would never write.
		if err := os.WriteFile(out, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		// A serve-mode case that slips through binds a listener and waits
		// for a signal: fail it instead of hanging.
		var stdout, stderr bytes.Buffer
		exit := make(chan int, 1)
		go func() { exit <- run(tc.args, &stdout, &stderr) }()
		var code int
		select {
		case code = <-exit:
		case <-time.After(10 * time.Second):
			t.Fatalf("fridge %v did not exit: it is serving", tc.args)
		}
		if code != 1 {
			t.Errorf("fridge %v: exit %d, want 1 (stderr %q)", tc.args, code, stderr.String())
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("fridge %v: stderr %q lacks %q", tc.args, stderr.String(), want)
			}
		}
		if data, _ := os.ReadFile(out); string(data) != "keep" {
			t.Errorf("fridge %v rewrote %s", tc.args, out)
		}
		if stdout.Len() > 0 {
			t.Errorf("fridge %v ran before refusing: stdout %q", tc.args, stdout.String())
		}
	}
}

// TestNearLimitProfilesRun: a profile whose demands fit a time.Duration
// runs even where a jittered draw, or a demand stretched at a low P-state,
// would not fit one: such a job is due at the end of time and never
// completes, where it used to crash the run.
func TestNearLimitProfilesRun(t *testing.T) {
	for _, tc := range []struct {
		api, f string
		args   []string
	}{
		// Each draw of a 9.2e18 ns mean with 8% jitter overflows with
		// probability about 0.47.
		{`"cpuShare":0.5,"jitter":0.08`, `"cpuShare":0.8,"jitter":0.08`, []string{"-scheme", "Baseline"}},
		// A CPU-bound 5e18 ns call overflows at 1.2 GHz, where a 30%
		// cap sends its host.
		{`"cpuShare":0.5`, `"cpuShare":1`, []string{"-scheme", "Capping", "-budget", "0.3"}},
	} {
		profile := `{"services":[{"name":"api","kind":"api",` + tc.api + `},{"name":"f","kind":"function",` + tc.f + `}],"regions":[` +
			`{"name":"A","api":"api","apiExecMs":9.2e12,"stages":[[{"service":"f","times":1,"execMs":5e12}]]},` +
			`{"name":"B","api":"api","apiExecMs":2,"stages":[[{"service":"f","times":1,"execMs":1}]]}]}`
		path := filepath.Join(t.TempDir(), "profile.json")
		if err := os.WriteFile(path, []byte(profile), 0o644); err != nil {
			t.Fatal(err)
		}
		fridge(t, append([]string{"-spec", path, "-workers", "2", "-warmup", "1s", "-duration", "2s"}, tc.args...)...)
	}
}

// TestSweepMatchesSingleRuns: -sweep forks every row from one warmed run,
// and each row must report what a single run at that -budget reports —
// its cap, per-region p95, budget violations and migrations.
func TestSweepMatchesSingleRuns(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		sweep string
	}{
		// The cap binds below 100% here: 3/15 violations at 70%, 10/15
		// at 50%.
		{[]string{"-scheme", "ServiceFridge", "-duration", "10s"}, "1.0,0.7,0.5"},
		{[]string{"-trace", "../../testdata/traces/diurnal_day.csv", "-scheme", "ServiceFridge"}, "1.0,0.9,0.8"},
	} {
		rows := sweepRows(t, fridge(t, append(tc.args, "-sweep", tc.sweep)...))
		fracs := strings.Split(tc.sweep, ",")
		if len(rows) != len(fracs) {
			t.Fatalf("fridge %v -sweep %s: %d rows, want %d", tc.args, tc.sweep, len(rows), len(fracs))
		}
		for i, frac := range fracs {
			if want := reportRow(t, fridge(t, append(tc.args, "-budget", frac)...)); rows[i] != want {
				t.Errorf("fridge %v: sweep row at %s is\n  %s\nbut a single run reports\n  %s", tc.args, frac, rows[i], want)
			}
		}
	}
}

// sweepRows renders each row of a -sweep table as the line reportRow
// makes of a single-run report.
func sweepRows(t *testing.T, out string) []string {
	t.Helper()
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("sweep output too short:\n%s", out)
	}
	header := strings.Fields(lines[1]) // budget cap p95 A p95 B ... violations migrations
	var regions []string
	for i := 2; i+1 < len(header); i += 2 {
		if header[i] == "p95" {
			regions = append(regions, header[i+1])
		}
	}
	var rows []string
	for _, line := range lines[3:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			break
		}
		if len(f) != 4+len(regions) {
			t.Fatalf("sweep row %q: want %d fields", line, 4+len(regions))
		}
		row := "cap=" + f[1]
		for i, r := range regions {
			row += " p95[" + r + "]=" + f[2+i]
		}
		rows = append(rows, row+" violations="+f[len(f)-2]+" migrations="+f[len(f)-1])
	}
	return rows
}

// reportRow extracts from a single-run report what a sweep row shows.
func reportRow(t *testing.T, report string) string {
	t.Helper()
	var capW, p95s, violations, migrations string
	inTable := false
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "region "):
			inTable = true
		case inTable && len(f) == 0:
			inTable = false
		case inTable && len(f) == 6:
			p95s += " p95[" + f[0] + "]=" + f[4]
		case strings.HasPrefix(line, "power: cap="):
			capW = strings.TrimPrefix(f[1], "cap=")
		case strings.HasPrefix(line, "budget violations: "):
			violations = f[2] + "/" + f[4]
		case strings.HasPrefix(line, "migrations: "):
			migrations = f[1]
		}
	}
	if capW == "" || p95s == "" || violations == "" || migrations == "" {
		t.Fatalf("report lacks a sweep column:\n%s", report)
	}
	return "cap=" + capW + p95s + " violations=" + violations + " migrations=" + migrations
}
