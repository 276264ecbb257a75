// Command benchgate enforces the repo's microbenchmark and ratio gates in
// CI. End-to-end timings are judged elsewhere: scripts/bench_compare.sh
// runs the bench/ benchmark (sfbench) against the parent commit.
//
// It checks two things:
//
//  1. With -bench-out, microbenchmark output from `go test -bench
//     -benchmem` against the ceilings committed in bench_gates.json:
//     allocs/op (exact ceilings — the hot paths gate at zero) and
//     ns/op (generous ceilings that catch order-of-magnitude
//     regressions without flaking on runner speed).
//
//  2. With -overhead, a wall-clock ratio: "base:measured:max" takes two
//     wall-clock measurements in seconds and fails when measured exceeds
//     base times the max ratio. "12.31:12.49:1.03" allows 3%, which
//     scripts/profiler_overhead.sh uses for phase profiling off and on;
//     a max of 1.0 demands the second run be no slower than the first,
//     which CI uses for the 8-worker regeneration against the sequential
//     one. The caller measures; benchgate judges.
//
// Usage:
//
//	benchgate [-bench-out bench.txt] [-gates bench_gates.json]
//	          [-overhead baseSecs:measuredSecs:maxRatio]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// gates is the committed bench_gates.json: per-benchmark ceilings.
type gates struct {
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
}

// benchLine is one parsed result line of `go test -bench -benchmem`.
type benchLine struct {
	name   string // with the -GOMAXPROCS suffix stripped
	nsOp   float64
	allocs float64
	hasMem bool
}

func main() {
	var (
		benchOut = flag.String("bench-out", "",
			"output of `go test -bench -benchmem` to check against the gates file")
		gatesFile = flag.String("gates", "bench_gates.json", "microbenchmark ceilings (allocs/op, ns/op)")
		overhead  = flag.String("overhead", "",
			"wall-clock ratio gate baseSecs:measuredSecs:maxRatio, e.g. 12.31:12.49:1.03")
	)
	flag.Parse()

	failed := false
	if *benchOut != "" && !gateMicrobenches(*benchOut, *gatesFile) {
		failed = true
	}
	if *overhead != "" && !gateOverhead(*overhead) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// gateOverhead checks one "base:measured:maxRatio" demand: the measured
// wall-clock must stay within maxRatio times the base one. Both
// measurements come from the caller (take the median of several runs to
// shed scheduler noise) so the gate itself is a pure comparison.
func gateOverhead(spec string) bool {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		fmt.Fprintf(os.Stderr, "benchgate: malformed -overhead %q (want base:measured:maxRatio)\n", spec)
		return false
	}
	base, err1 := strconv.ParseFloat(parts[0], 64)
	measured, err2 := strconv.ParseFloat(parts[1], 64)
	ratio, err3 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil || err3 != nil || base <= 0 || measured <= 0 || ratio < 1 {
		fmt.Fprintf(os.Stderr, "benchgate: bad -overhead values in %q\n", spec)
		return false
	}
	got := measured / base
	if got > ratio {
		fmt.Fprintf(os.Stderr, "benchgate: %.2fs -> %.2fs is %+.1f%%, over the %.0f%% budget\n",
			base, measured, (got-1)*100, (ratio-1)*100)
		return false
	}
	fmt.Printf("benchgate: %.2fs -> %.2fs is %+.1f%%, within the %.0f%% budget\n",
		base, measured, (got-1)*100, (ratio-1)*100)
	return true
}

// parseBenchOut extracts result lines like
//
//	BenchmarkEngineCalendar-4  100000  95.15 ns/op  0 B/op  0 allocs/op
//
// stripping the -GOMAXPROCS suffix from the name.
func parseBenchOut(path string) ([]benchLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []benchLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		bl := benchLine{name: name}
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				bl.nsOp = v
			case "allocs/op":
				bl.allocs = v
				bl.hasMem = true
			}
		}
		out = append(out, bl)
	}
	return out, sc.Err()
}

// gateMicrobenches checks parsed benchmark output against the committed
// ceilings. Every benchmark named in the gates file must appear in the
// output — a silently dropped benchmark must not silently drop its gate.
func gateMicrobenches(benchOut, gatesFile string) bool {
	raw, err := os.ReadFile(gatesFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return false
	}
	var g gates
	if err := json.Unmarshal(raw, &g); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", gatesFile, err)
		return false
	}
	lines, err := parseBenchOut(benchOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return false
	}
	byName := map[string]benchLine{}
	for _, l := range lines {
		byName[l.name] = l
	}
	ok := true
	for _, name := range sortedKeys(g.AllocsPerOp) {
		ceil := g.AllocsPerOp[name]
		l, found := byName[name]
		switch {
		case !found:
			fmt.Fprintf(os.Stderr, "benchgate: %s gated on allocs/op but absent from %s\n", name, benchOut)
			ok = false
		case !l.hasMem:
			fmt.Fprintf(os.Stderr, "benchgate: %s has no allocs/op (run with -benchmem)\n", name)
			ok = false
		case l.allocs > ceil:
			fmt.Fprintf(os.Stderr, "benchgate: %s at %.2f allocs/op exceeds ceiling %.0f\n", name, l.allocs, ceil)
			ok = false
		default:
			fmt.Printf("benchgate: %s %.2f allocs/op within ceiling %.0f\n", name, l.allocs, ceil)
		}
	}
	for _, name := range sortedKeys(g.NsPerOp) {
		ceil := g.NsPerOp[name]
		l, found := byName[name]
		switch {
		case !found:
			fmt.Fprintf(os.Stderr, "benchgate: %s gated on ns/op but absent from %s\n", name, benchOut)
			ok = false
		case l.nsOp > ceil:
			fmt.Fprintf(os.Stderr, "benchgate: %s at %.1f ns/op exceeds ceiling %.0f\n", name, l.nsOp, ceil)
			ok = false
		default:
			fmt.Printf("benchgate: %s %.1f ns/op within ceiling %.0f\n", name, l.nsOp, ceil)
		}
	}
	return ok
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; the maps are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
