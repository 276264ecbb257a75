// Command sfbench is the repository benchmark.
//
// Usage:
//
//	sfbench [-seed N] [-seconds S] [-out results.json]
//	sfbench --workload W --seed N --seconds S --trace 0|1 [-out run.json]
//	sfbench compare parent.json[,parent2.json...] change.json[,change2.json...]
//
// Without --workload it runs every workload of BENCHMARK.json, each timed
// run and each traced run in its own child process (so peak RSS and GC
// state are per workload), prints every metric as "workload metric value
// unit", and writes all samples plus the machine description to -out.
//
// With --workload it runs one workload in this process: --trace 0 times
// the workload's ops for S seconds, --trace 1 runs untraced/traced unit
// pairs and the layer probes and writes bench/out/<workload>.trace.json.
// The last line of standard output is one JSON object with the declared
// end-to-end (trace 0) or per-layer (trace 1) metrics and the counts of
// attempted and failed output checks.
//
// compare applies the regression rule to two builds' result files; several
// comma-separated files per side are runs made alternately, paired by
// position. It exits 1 when a metric regressed.
//
// Run it from the repository root; bench/run.sh builds and runs it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"servicefridge/bench"
)

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compare(os.Args[2:])
	}
	var (
		workload = flag.String("workload", "", "run only this workload in this process")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 0, "measuring time per run (0 = BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1 = per-layer traced run, 0 = timed run")
		out      = flag.String("out", "", "results file (default bench/out/results.json without --workload)")
	)
	flag.Parse()
	root, err := bench.FindRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := bench.LoadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join(root, "bench", "out")
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "results.json")
		}
		return runAll(spec, outDir, *seed, *seconds, *out)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	opt := bench.Options{Root: root, Seed: *seed, Seconds: *seconds, Traced: *trace == 1}
	if opt.Traced {
		opt.TraceDir = outDir
	}
	r, err := bench.RunWorkload(*workload, opt)
	if err != nil {
		return fail(err)
	}
	line, err := bench.SummaryLine(r, spec.Declared(opt.Traced))
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := bench.WriteResults(*out, &bench.Results{Runs: []*bench.Run{r}}); err != nil {
			return fail(err)
		}
	}
	bench.PrintLines(os.Stdout, r)
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "sfbench: check failed:", f)
	}
	fmt.Printf("%s\n", line)
	return 0
}

// runAll runs every workload's timed and traced runs as child processes
// and merges their results.
func runAll(spec *bench.Spec, outDir string, seed uint64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	all := &bench.Results{}
	status := 0
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			part := filepath.Join(outDir, w.Name+".run"+trace+".json")
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "-out", part)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			err := cmd.Run()
			// Forward the metric lines; the child's closing JSON line is
			// for single-workload callers.
			text := strings.TrimRight(stdout.String(), "\n")
			if i := strings.LastIndexByte(text, '\n'); err == nil && i >= 0 {
				text = text[:i]
			}
			fmt.Println(text)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sfbench: %s (trace %s): %v\n", w.Name, trace, err)
				status = 1
				continue
			}
			res, err := bench.ReadResults(part)
			if err != nil {
				return fail(err)
			}
			for _, r := range res.Runs {
				if r.Failed > 0 {
					status = 1
				}
			}
			all.Runs = append(all.Runs, res.Runs...)
		}
	}
	if err := bench.WriteResults(out, all); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "sfbench: results written to %s\n", out)
	return status
}

func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: sfbench compare parent.json[,...] change.json[,...]")
		return 2
	}
	root, err := bench.FindRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := bench.LoadSpec(root)
	if err != nil {
		return fail(err)
	}
	regressed, err := bench.Compare(os.Stdout, spec, strings.Split(args[0], ","), strings.Split(args[1], ","))
	if err != nil {
		return fail(err)
	}
	if regressed {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sfbench:", err)
	return 1
}
