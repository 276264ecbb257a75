// Package cliutil holds the flag groups and small helpers shared by the
// repo's command-line tools (cmd/fridge, cmd/experiments, cmd/mcf), so
// common flags are defined — and documented — exactly once.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/obs"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/workload"
)

// ExportFlags groups the artifact-export flags shared by cmd/fridge and
// cmd/experiments.
type ExportFlags struct {
	Events      string
	Traces      string
	Ledger      string
	TraceSample float64
}

// Bind registers the export flags on fs. defaultSample is the default
// -trace-sample fraction (cmd/fridge exports everything by default; the
// canonical experiments run samples to keep artifacts small).
func (e *ExportFlags) Bind(fs *flag.FlagSet, defaultSample float64) {
	fs.StringVar(&e.Events, "events", "",
		"write the run's controller event stream as JSONL to this file")
	fs.StringVar(&e.Traces, "traces", "",
		"write the run's request traces as Zipkin v2 JSON to this file")
	fs.StringVar(&e.Ledger, "ledger", "",
		"write the run's hash-chained ledger as JSONL to this file (diff with cmd/simdiff)")
	fs.Float64Var(&e.TraceSample, "trace-sample", defaultSample,
		"fraction of requests exported by -traces (deterministic stride, not RNG)")
}

// Stride converts the -trace-sample fraction into the exporter's
// deterministic keep-every-k stride.
func (e *ExportFlags) Stride() int {
	if e.TraceSample <= 0 || e.TraceSample >= 1 {
		return 1
	}
	return int(1/e.TraceSample + 0.5)
}

// TelemetryFlags groups the live-telemetry flags. cmd/fridge applies
// them to the scenario it runs, whose telemetry every single run binds.
type TelemetryFlags struct {
	Timeseries string
	Listen     string
	SLOTarget  time.Duration
}

// Bind registers -timeseries, the telemetry flag every CLI shares.
func (t *TelemetryFlags) Bind(fs *flag.FlagSet) {
	fs.StringVar(&t.Timeseries, "timeseries", "",
		"write the sampled telemetry time series as CSV to this file")
}

// BindServe registers -timeseries plus the flags that only make sense on
// a tool that owns a live run: -listen and -slo-target.
func (t *TelemetryFlags) BindServe(fs *flag.FlagSet) {
	t.Bind(fs)
	fs.StringVar(&t.Listen, "listen", "",
		"serve live telemetry on this address (/metrics Prometheus text, /status JSON, /healthz)")
	fs.DurationVar(&t.SLOTarget, "slo-target", telemetry.DefaultSLOTarget,
		"p95 response-time target the SLO monitor alerts on")
}

// LoadSpec resolves an application profile: specPath (a JSON profile)
// wins when set; otherwise name selects a built-in family from
// app.Builtin ("study", "full", "socialnet", ...).
func LoadSpec(name, specPath string) (*app.Spec, error) {
	family, ok := app.Builtin(name)
	if !ok {
		return nil, fmt.Errorf("unknown application %q (want %s)",
			name, strings.Join(app.BuiltinNames(), ", "))
	}
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return app.ReadSpec(f)
	}
	return family.New(), nil
}

// WorkloadFlags groups cmd/fridge's application and traffic-shape
// selection flags: -app/-spec pick the call-graph family, -workload/
// -rate/-horizon generate a registered time-varying profile, -trace
// replays a recorded t,region,rate schedule, and -closed drives
// per-region worker pools instead of open-loop arrivals. Workload turns
// the traffic flags into a scenario's workload section.
type WorkloadFlags struct {
	App       string
	SpecPath  string
	Profile   string
	Rate      float64
	Horizon   time.Duration
	TracePath string
	Closed    bool
}

// Bind registers the flag group on fs. Help text enumerates the
// registered traffic shapes and application families, the way -scheme
// help already enumerates schemes.Names().
func (w *WorkloadFlags) Bind(fs *flag.FlagSet) {
	fs.StringVar(&w.App, "app", "study",
		"application family: "+strings.Join(app.BuiltinNames(), ", "))
	fs.StringVar(&w.SpecPath, "spec", "", "JSON application profile (overrides -app)")
	fs.StringVar(&w.Profile, "workload", "",
		"time-varying traffic profile: "+strings.Join(workload.Names(), ", ")+
			" (empty = the steady closed-loop flags)")
	fs.Float64Var(&w.Rate, "rate", 0,
		"base per-region level for -workload: req/s open-loop, workers with -closed (0 = defaults)")
	fs.DurationVar(&w.Horizon, "horizon", 0, "schedule horizon for -workload (0 = warmup+duration)")
	fs.StringVar(&w.TracePath, "trace", "",
		"replay a t,region,rate trace file (CSV or JSONL; conflicts with -workload)")
	fs.BoolVar(&w.Closed, "closed", false,
		"drive per-region closed-loop worker pools instead of open-loop arrivals")
}

// Workload resolves the traffic flags into the scenario-format workload
// section: nil when no time-varying workload was requested, an error for
// conflicting or dangling flags. A -trace file is read here and carried
// inline, exactly as a scenario posts it to the control plane; all deeper
// validation (unknown profile names, malformed traces, bad rates) lives
// in workload.Spec.Normalize so the CLI and the server reject
// identically.
func (w *WorkloadFlags) Workload() (*workload.Spec, error) {
	if w.TracePath != "" && w.Profile != "" {
		return nil, fmt.Errorf("-trace conflicts with -workload %q", w.Profile)
	}
	if w.Profile == "" && w.TracePath == "" {
		if w.Rate != 0 || w.Horizon != 0 || w.Closed {
			return nil, fmt.Errorf("-rate/-horizon/-closed need -workload or -trace")
		}
		return nil, nil
	}
	ws := &workload.Spec{Profile: w.Profile, Rate: w.Rate, HorizonS: w.Horizon.Seconds(), Closed: w.Closed}
	if w.TracePath != "" {
		data, err := os.ReadFile(w.TracePath)
		if err != nil {
			return nil, err
		}
		ws.Trace = string(data)
	}
	return ws, nil
}

// ParseMix parses comma-separated name=weight pairs into a load map,
// dropping zero weights and rejecting malformed or all-zero input.
func ParseMix(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want name=weight)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight in %q", pair)
		}
		if w > 0 {
			out[strings.TrimSpace(name)] = w
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", s)
	}
	return out, nil
}

// ParseSweep parses a -sweep spec: comma-separated budget fractions,
// each in (0, 1], no duplicates, at least one. Any order is legal — the
// canonical paper sweep descends (1.0,0.9,0.8,0.75) — but a repeated
// fraction is almost certainly a typo, so it is rejected rather than
// silently re-run.
func ParseSweep(s string) ([]float64, error) {
	var fracs []float64
	seen := map[float64]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sweep fraction %q: %v", part, err)
		}
		if !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("-sweep fraction %v must be in (0, 1]", f)
		}
		if seen[f] {
			return nil, fmt.Errorf("-sweep fraction %v repeats", f)
		}
		seen[f] = true
		fracs = append(fracs, f)
	}
	if len(fracs) == 0 {
		return nil, fmt.Errorf("-sweep %q has no fractions", s)
	}
	return fracs, nil
}

// CheckWritable verifies — before any simulation work — that every
// non-empty export path can be created, so a typo'd directory or a
// read-only target fails the command in milliseconds instead of after
// minutes of simulation. Each path is created empty here and truncated
// again by the real export.
func CheckWritable(paths ...string) error {
	for _, p := range paths {
		if p == "" {
			continue
		}
		f, err := os.Create(p)
		if err != nil {
			return fmt.Errorf("export path not writable: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("export path not writable: %w", err)
		}
	}
	return nil
}

// WarnDropped prints a single stderr-style warning when the run's event
// ring overwrote records: the exported JSONL is then missing the oldest
// events (the run ledger, which hashes at emit time, still covers them).
func WarnDropped(w io.Writer, rec *obs.Recorder) {
	if n := rec.Dropped(); n > 0 {
		fmt.Fprintf(w, "warning: event ring overwrote %d events; the oldest are missing from exports\n", n)
	}
}

// ExportFile creates path, hands it to write, and closes it, reporting
// the first error.
func ExportFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
