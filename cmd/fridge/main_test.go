package main

import (
	"bytes"
	"encoding/json"
	"io"
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
	// A duration past time.Duration's range is an input error naming its
	// field, not a wrapped negative duration that runs and misreports.
	for _, spec := range []struct{ body, field string }{
		{`{"telemetry":{"slo_target_ms":1e13}}`, "telemetry.slo_target_ms"},
		{`{"warmup_s":9.3e9}`, "warmup_s"},
	} {
		path := filepath.Join(t.TempDir(), "overflow.json")
		if err := os.WriteFile(path, []byte(spec.body), 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			args []string
			want []string
		}{[]string{"-scenario", path}, []string{spec.field, "overflows a time.Duration"}})
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
		var stderr bytes.Buffer
		exit := make(chan int, 1)
		go func() { exit <- run(tc.args, io.Discard, &stderr) }()
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
	}
}
