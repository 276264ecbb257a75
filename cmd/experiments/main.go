// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list            # show available experiment IDs
//	experiments -run fig15       # regenerate one artifact
//	experiments -run all         # regenerate the paper (paper order)
//	experiments -run all,ext     # paper plus the extension studies
//	experiments -seed 7 -run fig6
//	experiments -run all -parallel 8
//	experiments -run all -events events.jsonl
//	experiments -run all -ledger run.ledger.jsonl
//	experiments -run ext-slo -timeseries telemetry.csv
//	experiments -run ext-critpath -traces traces.json -trace-sample 0.05
//	experiments -run fig15 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// It only regenerates figures: a single run (one scheme, budget and
// traffic mix, or a JSON scenario spec) is cmd/fridge's job.
//
// Independent simulation runs fan out across -parallel workers, both
// across experiments and across within-figure cells; tables print in
// paper order and are byte-identical to a sequential (-parallel 1) run
// for the same seed. Timing lines go to stderr so stdout stays
// deterministic. The budget-sweep figures (fig14, fig15, ext-slo) run
// their shared warmup once per cell group and fork each sweep cell from
// an in-memory snapshot (engine.ForkEach). -events additionally executes
// the canonical instrumented run (see
// internal/experiments.ExportEventsJSONL) and writes its controller event
// stream as JSONL; -traces executes the canonical study run and writes
// its request traces as Zipkin v2 JSON, deterministically sampled at
// -trace-sample; -timeseries executes the same canonical scenario with
// telemetry bound and writes the sampled time series as CSV; -ledger
// executes it with a run ledger attached and writes the hash-chained tick
// digests as JSONL (localize any divergence with cmd/simdiff). All
// exports are byte-identical across -parallel widths. -format is table
// or csv. -cpuprofile/-memprofile write pprof profiles of the
// regeneration itself; -profile writes the simulator's own per-phase
// wall-time breakdown (build/dispatch/exec/tick/mcf/...) as JSON,
// aggregated per figure, with a sorted table on stderr. Phase profiling
// is passive: all simulation outputs stay byte-identical with it on.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"servicefridge/internal/cliutil"
	"servicefridge/internal/experiments"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		runIDs   = flag.String("run", "all", "experiment ID to regenerate (or \"all\")")
		seed     = flag.Uint64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		format   = flag.String("format", "table", "output format: table or csv")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulation runs (1 = sequential)")
		exports   cliutil.ExportFlags
		telFlags  cliutil.TelemetryFlags
		profFlags cliutil.ProfileFlags
	)
	exports.Bind(flag.CommandLine, 0.05)
	telFlags.Bind(flag.CommandLine)
	profFlags.Bind(flag.CommandLine)
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown -format %q; known: table, csv\n", *format)
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var todo []experiments.Experiment
	for _, id := range strings.Split(*runIDs, ",") {
		switch id = strings.TrimSpace(id); id {
		case "all":
			todo = append(todo, experiments.All()...)
		case "ext":
			todo = append(todo, experiments.Extensions()...)
		default:
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all, ext, %s\n",
					id, strings.Join(experiments.IDs(), ", "))
				return 2
			}
			todo = append(todo, e)
		}
	}

	// Export destinations are probed before any simulation runs: an
	// unwritable path fails the command in milliseconds, not after the
	// full regeneration.
	paths := append([]string{exports.Events, exports.Traces, exports.Ledger, telFlags.Timeseries},
		profFlags.Paths()...)
	if err := cliutil.CheckWritable(paths...); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}

	if err := profFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}

	experiments.SetParallelism(*parallel)
	start := time.Now()
	failed := false
	experiments.RunAll(todo, *seed, func(r experiments.RunResult) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", r.Err)
			failed = true
			return
		}
		fmt.Printf("### %s — %s\n\n", r.Experiment.ID, r.Experiment.Title)
		for _, tb := range r.Tables {
			if *format == "csv" {
				fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
			} else {
				fmt.Println(tb)
			}
		}
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n",
			r.Experiment.ID, r.Elapsed.Round(time.Millisecond))
	})
	fmt.Fprintf(os.Stderr, "(total: %d experiments in %v, parallel=%d)\n",
		len(todo), time.Since(start).Round(time.Millisecond), experiments.Parallelism())
	if failed {
		return 1
	}

	if exports.Events != "" {
		if err := cliutil.ExportFile(exports.Events, func(w io.Writer) error {
			return experiments.ExportEventsJSONL(*seed, w)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "events: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "(event stream written to %s)\n", exports.Events)
	}

	if exports.Traces != "" {
		if err := cliutil.ExportFile(exports.Traces, func(w io.Writer) error {
			return experiments.ExportTracesJSON(*seed, exports.Stride(), w)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "traces: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "(trace export written to %s)\n", exports.Traces)
	}

	if telFlags.Timeseries != "" {
		if err := cliutil.ExportFile(telFlags.Timeseries, func(w io.Writer) error {
			return experiments.ExportTimeseriesCSV(*seed, w)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "timeseries: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "(telemetry time series written to %s)\n", telFlags.Timeseries)
	}

	if exports.Ledger != "" {
		if err := cliutil.ExportFile(exports.Ledger, func(w io.Writer) error {
			return experiments.ExportLedgerJSONL(*seed, w)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "(run ledger written to %s)\n", exports.Ledger)
	}

	// The phase profile aggregates every run the regeneration (and the
	// canonical exports above) performed, one label per figure.
	if err := profFlags.Finish(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}
