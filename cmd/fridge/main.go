// Command fridge runs one ServiceFridge experiment scenario and prints the
// latency and power results.
//
// Usage:
//
//	fridge -scheme ServiceFridge -budget 0.8 -workers 50 -mixA 30 -mixB 20 -duration 30s
//	fridge -scenario testdata/scenarios/flash_crowd.json      # a JSON scenario spec
//	fridge -scenario spec.json -seed 7 -budget 0.75           # flags override its fields
//	fridge -scheme ServiceFridge -budget 0.8 -timeseries run.csv
//	fridge -scheme ServiceFridge -ledger run.ledger.jsonl     # hash-chained run ledger (diff with cmd/simdiff)
//	fridge -workload diurnal -rate 40 -app socialnet          # time-varying open-loop traffic
//	fridge -trace testdata/traces/diurnal_day.csv             # replay a recorded t,region,rate trace
//	fridge -scheme ServiceFridge -budget 0.8 -listen :8080   # live /metrics + control plane
//	fridge -serve -listen :8080                              # control plane only, no local run
//	fridge -scheme ServiceFridge -sweep 1.0,0.9,0.8,0.75
//
// Every run is an experiments.Scenario: the command starts from the
// -scenario file (or the zero scenario), overrides the fields whose flags
// were set explicitly, and takes its engine configuration from
// Scenario.Config — the mapping the control plane uses for its sessions.
// A run binds the scenario's telemetry as a session does, so stdout is
// byte-identical to the report field of a session's /result for the same
// scenario.
//
// With -listen the process serves Prometheus text-format /metrics, a JSON
// /status snapshot, /healthz, Go's /debug/pprof endpoints, and the
// simulation control plane under /sessions (POST a scenario spec, poll
// it, stream its telemetry, ask what-if questions — see internal/server)
// while the local simulation runs, and keeps serving after the results
// print until interrupted.
// Serving is read-only off atomically published snapshots, so scraping
// never perturbs the (deterministic) run. -serve skips the local run and
// only serves the control plane, so it rejects -scenario and every
// output flag.
//
// With -sweep the command runs one cell per budget fraction and prints a
// compact comparison table instead of the single-run report. It simulates
// the shared warmup once, snapshots the engine at the budget-independence
// barrier, and forks every cell from that snapshot (engine.ForkEach):
// each row equals the report of a single run at that -budget.
//
// -profile writes the simulator's own per-phase wall-time breakdown
// (build/dispatch/exec/tick/mcf/...) as JSON with a sorted table on
// stderr; it combines with every mode, including -sweep (one label for
// the whole sweep, whose cells share one engine), because phase profiling
// is passive — all simulation outputs are byte-identical with it on.
// -cpuprofile/-memprofile write Go pprof profiles of the process itself.
//
// All flag and configuration validation happens before any socket is
// bound, so a bad spec can never leave a half-started listener behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cliutil"
	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
	"servicefridge/internal/schemes"
	"servicefridge/internal/server"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams injected, so tests
// drive the real flag path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fridge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "",
			"start from this JSON scenario spec (the control-plane format); flags set explicitly override its fields")
		scheme    = fs.String("scheme", "Baseline", "power scheme: "+strings.Join(schemes.Names(), ", "))
		budget    = fs.Float64("budget", 1.0, "power budget fraction of maximum, in (0, 1]")
		workers   = fs.Int("workers", 50, "closed-loop worker count (0 = 50; a -workload/-trace run starts none unless this is set)")
		mixA      = fs.Float64("mixA", 1, "weight of region A (Advanced Search) requests")
		mixB      = fs.Float64("mixB", 1, "weight of region B (Basic Ticketing) requests")
		duration  = fs.Duration("duration", 30*time.Second, "measured duration after warmup")
		warmup    = fs.Duration("warmup", 5*time.Second, "warmup duration (discarded)")
		seed      = fs.Uint64("seed", 1, "random seed (0 = 1)")
		sweep     = fs.String("sweep", "", "comma-separated budget fractions to sweep (overrides -budget); prints one row per cell")
		serve     = fs.Bool("serve", false, "with -listen: serve the control plane only, without a local run")
		wl        cliutil.WorkloadFlags
		exports   cliutil.ExportFlags
		telFlags  cliutil.TelemetryFlags
		profFlags cliutil.ProfileFlags
	)
	wl.Bind(fs)
	exports.Bind(fs, 1)
	telFlags.BindServe(fs)
	profFlags.Bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Serve mode runs nothing locally: a scenario would be ignored and an
	// output file truncated but never written.
	if *serve {
		if telFlags.Listen == "" {
			fmt.Fprintln(stderr, "fridge: -serve requires -listen")
			return 1
		}
		for _, name := range []string{"scenario", "events", "traces", "ledger", "timeseries", "profile", "cpuprofile", "memprofile"} {
			if set[name] {
				fmt.Fprintf(stderr, "fridge: -serve runs nothing locally, so -%s does not apply (sessions carry their own)\n", name)
				return 1
			}
		}
	}

	var sc experiments.Scenario
	if *scenario != "" {
		f, err := os.Open(*scenario)
		if err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 1
		}
		sc, err = experiments.DecodeScenario(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	// Flags set explicitly override the file's fields; the flag defaults
	// are the zero scenario's, so unset flags change nothing.
	overrides := map[string]func(){
		"scheme":   func() { sc.Scheme = *scheme },
		"budget":   func() { sc.Budget = *budget },
		"workers":  func() { sc.Workers = *workers },
		"mixA":     func() { sc.MixA = mixA },
		"mixB":     func() { sc.MixB = mixB },
		"warmup":   func() { sc.WarmupS = warmup.Seconds() },
		"duration": func() { sc.DurationS = duration.Seconds() },
		"seed":     func() { sc.Seed = *seed },
		"app":      func() { sc.App = wl.App },
		"slo-target": func() {
			var tel experiments.ScenarioTelemetry
			if sc.Telemetry != nil {
				tel = *sc.Telemetry
			}
			tel.SLOTargetMS = telFlags.SLOTarget.Seconds() * 1000
			sc.Telemetry = &tel
		},
	}
	for name, override := range overrides {
		if set[name] {
			override()
		}
	}
	ws, err := wl.Workload()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if ws != nil {
		if sc.Workload != nil {
			fmt.Fprintln(stderr, "fridge: the scenario already has a workload section; drop the -workload/-trace flags")
			return 1
		}
		sc.Workload = ws
	}
	var spec *app.Spec // nil runs the built-in family the scenario names
	if wl.SpecPath != "" {
		if spec, err = cliutil.LoadSpec(wl.App, wl.SpecPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	sc, cfg, err := sc.ConfigFor(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg.KeepSpans = exports.Traces != ""

	// Everything below validates before any listener binds: a bad sweep
	// spec, flag combination or export path must not leak a socket.
	// Profiling flags do combine with -sweep: phase profiling is passive,
	// so a sweep profiles fine (under one label).
	if *sweep != "" {
		if exports.Events != "" || exports.Traces != "" || exports.Ledger != "" || telFlags.Timeseries != "" || telFlags.Listen != "" {
			fmt.Fprintln(stderr, "fridge: -sweep does not combine with exports or -listen")
			return 1
		}
		fracs, err := cliutil.ParseSweep(*sweep)
		if err != nil {
			fmt.Fprintf(stderr, "fridge: %v\n", err)
			return 1
		}
		if err := cliutil.CheckWritable(profFlags.Paths()...); err != nil {
			fmt.Fprintf(stderr, "fridge: %v\n", err)
			return 1
		}
		if err := profFlags.Start(); err != nil {
			fmt.Fprintf(stderr, "fridge: %v\n", err)
			return 1
		}
		if err := runSweep(stdout, cfg, fracs); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := profFlags.Finish(stderr); err != nil {
			fmt.Fprintf(stderr, "fridge: %v\n", err)
			return 1
		}
		return 0
	}
	// Export destinations are probed before the run (and before any
	// listener binds): an unwritable path fails now, not after minutes of
	// simulation.
	paths := append([]string{exports.Events, exports.Traces, exports.Ledger, telFlags.Timeseries},
		profFlags.Paths()...)
	if err := cliutil.CheckWritable(paths...); err != nil {
		fmt.Fprintf(stderr, "fridge: %v\n", err)
		return 1
	}

	if exports.Events != "" {
		cfg.Events = obs.NewRecorder(0)
	}
	if exports.Ledger != "" {
		cfg.Ledger = obs.NewLedger()
	}
	tel := sc.NewTelemetry()
	cfg.Telemetry = tel

	// The listener starts before the run so scrapers can watch it live;
	// handlers read published snapshots only and never touch the sim.
	// The same mux carries the local run's telemetry and the control
	// plane's sessions.
	var served string
	if telFlags.Listen != "" {
		tel.EnablePublishing()
		ln, err := net.Listen("tcp", telFlags.Listen)
		if err != nil {
			fmt.Fprintf(stderr, "listen: %v\n", err)
			return 1
		}
		served = ln.Addr().String()
		mux := http.NewServeMux()
		telemetry.Register(mux, tel)
		server.New(server.Options{}).Register(mux)
		// Go's pprof endpoints, registered by hand because this is a
		// private mux, not http.DefaultServeMux. Combined with the pprof
		// labels the runs execute under, `go tool pprof
		// http://host/debug/pprof/profile` attributes CPU per session.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go (&http.Server{Handler: mux}).Serve(ln)
		fmt.Fprintf(stderr, "telemetry: serving http://%s/metrics\n", served)
		fmt.Fprintf(stderr, "control plane: POST scenarios to http://%s/sessions\n", served)
	}

	if *serve {
		awaitSignal()
		return 0
	}

	if err := profFlags.Start(); err != nil {
		fmt.Fprintf(stderr, "fridge: %v\n", err)
		return 1
	}
	var res *engine.Result
	pprof.Do(context.Background(), pprof.Labels("run", "local"), func(context.Context) {
		res, err = engine.RunE(cfg)
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if exports.Events != "" {
		if err := cliutil.ExportFile(exports.Events, cfg.Events.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "events: %v\n", err)
			return 1
		}
		cliutil.WarnDropped(stderr, cfg.Events)
	}
	if exports.Ledger != "" {
		if err := cliutil.ExportFile(exports.Ledger, cfg.Ledger.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "ledger: %v\n", err)
			return 1
		}
	}
	if exports.Traces != "" {
		err := cliutil.ExportFile(exports.Traces, func(w io.Writer) error {
			return trace.WriteZipkin(w, res.Collector.Traces(),
				trace.ZipkinOptions{SampleEvery: exports.Stride()})
		})
		if err != nil {
			fmt.Fprintf(stderr, "traces: %v\n", err)
			return 1
		}
	}
	if telFlags.Timeseries != "" {
		if err := cliutil.ExportFile(telFlags.Timeseries, tel.WriteCSV); err != nil {
			fmt.Fprintf(stderr, "timeseries: %v\n", err)
			return 1
		}
	}

	cliutil.RunReport(stdout, res, tel, sc.SLOTarget())

	if err := profFlags.Finish(stderr); err != nil {
		fmt.Fprintf(stderr, "fridge: %v\n", err)
		return 1
	}

	if res.Executor.Completed() == 0 {
		fmt.Fprintln(stderr, "warning: no requests completed")
		return 1
	}

	if served != "" {
		fmt.Fprintf(stderr,
			"telemetry: run complete; serving the final snapshot on http://%s (interrupt to exit)\n", served)
		awaitSignal()
	}
	return 0
}

// awaitSignal blocks until the process is interrupted or terminated.
func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// runSweep executes one cell per budget fraction and prints a comparison
// table. It simulates the shared warmup once and forks each cell from the
// snapshot at the budget-independence barrier: restore → retarget →
// finish.
func runSweep(w io.Writer, cfg engine.Config, fracs []float64) error {
	regions := cfg.Spec.RegionNames()
	cols := []string{"budget", "cap"}
	for _, r := range regions {
		cols = append(cols, "p95 "+r)
	}
	cols = append(cols, "violations", "migrations")
	tb := metrics.NewTable(fmt.Sprintf("Budget sweep (%s, %d workers)", cfg.Scheme, cfg.Workers), cols...)

	// The donor engine serves every cell, so the phase profile carries a
	// single label.
	cfg.ProfLabel = "sweep"
	donor, err := engine.BuildE(cfg)
	if err != nil {
		return err
	}
	var rows [][]any
	pprof.Do(context.Background(), pprof.Labels("run", "sweep"), func(context.Context) {
		rows = engine.ForkEach(donor, fracs,
			func(res *engine.Result, frac float64) []any {
				vals := []any{fmt.Sprintf("%.0f%%", frac*100), fmt.Sprintf("%.1fW", float64(res.Budget.Cap()))}
				for _, r := range regions {
					vals = append(vals, res.Summary(r).P95)
				}
				over, samples := res.BudgetViolations()
				return append(vals, fmt.Sprintf("%d/%d", over, samples), res.Orch.Migrations())
			})
	})
	for _, row := range rows {
		tb.Rowf(row...)
	}
	fmt.Fprintln(w, tb)
	return nil
}
