package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"servicefridge/internal/engine"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadTestSpec(t *testing.T) (root string, spec *Spec) {
	t.Helper()
	root, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err = LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestDeclaredMetrics checks BENCHMARK.json itself: names, units,
// directions and bounds.
func TestDeclaredMetrics(t *testing.T) {
	_, spec := loadTestSpec(t)
	seen := map[string]bool{}
	var setupBound, maxOther float64
	for _, m := range append(append([]Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	bounded := append([]Metric(nil), spec.EndToEnd...)
	for _, ms := range workloadMetrics {
		bounded = append(bounded, ms...)
	}
	for _, m := range bounded {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v not in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, Names)
	}
}

// checkPrinted checks a run's output: every metric it prints has a
// well-formed name and a unit; a timed run prints exactly the end-to-end
// metrics declared for its workload (with their units) and the info
// metrics; and the summary line carries exactly the declared metrics of
// its kind with their declared units.
func checkPrinted(t *testing.T, r *Run, spec *Spec) {
	t.Helper()
	for name, s := range r.Metrics {
		if !metricName.MatchString(name) || s.Unit == "" || s.N == 0 {
			t.Errorf("%s: printed metric %q (unit %q, %d samples)", r.Workload, name, s.Unit, s.N)
		}
	}
	if !r.Traced {
		declared := append(append(append([]Metric(nil), spec.EndToEnd...), workloadMetrics[r.Workload]...), infoMetrics...)
		for _, m := range declared {
			if s := r.Metrics[m.Name]; s == nil || s.Unit != m.Unit {
				t.Errorf("%s: declared %s (%s) printed as %+v", r.Workload, m.Name, m.Unit, s)
			}
		}
		if len(r.Metrics) != len(declared) {
			t.Errorf("%s: prints %d metrics, %d declared", r.Workload, len(r.Metrics), len(declared))
		}
	}
	line, err := SummaryLine(r, spec.Declared(r.Traced))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
		t.Errorf("%s: summary %s; failures %v", r.Workload, line, r.Failures)
	}
	declared := spec.Declared(r.Traced)
	if len(got.Metrics) != len(declared) {
		t.Errorf("%s: summary has %d metrics, %d declared", r.Workload, len(got.Metrics), len(declared))
	}
	for _, m := range declared {
		if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("%s: declared %s (%s) printed as %+v", r.Workload, m.Name, m.Unit, v)
		}
	}
}

// TestWhatif runs the control-plane workload with one session and one
// what-if per fork point, timed and traced: every response is a 2xx, the
// result and what-if bodies repeat byte for byte and match the seed-1
// digests, tracing is passive, and the trace file holds the spans.
func TestWhatif(t *testing.T) {
	root, spec := loadTestSpec(t)
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		r, err := RunWorkload("whatif", Options{Root: root, Seed: 1, Traced: traced, TraceDir: dir, Queries: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkPrinted(t, r, spec)
		if !traced {
			continue
		}
		for _, name := range []string{"server.whatif_overhead_ms", "server.session_overhead_ms", "engine.fork_replay_ms"} {
			if r.Metrics[name] == nil {
				t.Errorf("traced run: no %s", name)
			}
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "whatif.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []Span
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range tr.Spans {
		names[s.Name]++
		if s.End < s.Start || (s.Parent >= 0 && s.Parent >= s.ID) {
			t.Fatalf("malformed span %+v", s)
		}
	}
	for _, want := range []string{"whatif.unit", "engine.build", "engine.fork_replay", "engine.branch", "engine.restore", "engine.resume_replay", "sim.slice"} {
		if names[want] == 0 {
			t.Errorf("trace has no %s span (%v)", want, names)
		}
	}
}

// TestFig15UnitMatchesFigure15 ties the benchmark's copy of the study-cell
// and calibration configuration to the cells Figure15 runs: the fig15
// unit's warm-start group, normalized to an unthrottled cell of the same
// configuration, must reproduce the ServiceFridge rows of the committed
// Figure 15 at seed 1.
func TestFig15UnitMatchesFigure15(t *testing.T) {
	root, _ := loadTestSpec(t)
	out, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	w := &fig15{seed: 1}
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	sums, err := w.group(newUnitRun(false, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := studyCell(1, w.maxReq, 1.0, false, nil)
	baseCfg.Scheme = engine.Baseline
	base, err := engine.RunE(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The section holds one table per region, A then B.
	tables := strings.Split(string(splitSections(out)["fig15"]), "\n== ")[1:]
	if len(tables) != 2 {
		t.Fatalf("fig15 section has %d tables, want 2", len(tables))
	}
	for ri, region := range []string{"A", "B"} {
		bs := base.Summary(region)
		bn := bs.NormalizeTo(bs.Mean)
		rows := map[string][]string{}
		for i := range fig15Budgets {
			n := sums[i][ri].NormalizeTo(bs.Mean)
			for metric, v := range map[string]float64{
				"mean": n.Mean / orOne(bn.Mean), "p90": n.P90 / orOne(bn.P90),
				"p95": n.P95 / orOne(bn.P95), "p99": n.P99 / orOne(bn.P99),
			} {
				rows[metric] = append(rows[metric], fmt.Sprintf("%.2f", v))
			}
		}
		for metric, got := range rows {
			want := "ServiceFridge " + metric + " " + strings.Join(got, " ")
			found := false
			for _, line := range strings.Split(tables[ri], "\n") {
				found = found || strings.Join(strings.Fields(line), " ") == want
			}
			if !found {
				t.Errorf("region %s: no row %q in the committed Figure 15", region, want)
			}
		}
	}
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		if q1, m, q3 := quartiles(c.in); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := Metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "rate", Better: "higher", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name   string
		m      Metric
		a, b   []float64
		paired bool
		want   string
	}{
		{"unchanged", lower, base, scale(base, 1.01), false, WithinBound},
		{"slower beyond the bound", lower, base, scale(base, 1.2), false, Regression},
		{"slower within the bound", lower, base, scale(base, 1.05), true, WithinBound},
		{"noise wider than the bound", lower, base, noisy, false, Unresolved},
		{"noisy but every sample better", lower, scale(noisy, 3), noisy, false, AllBetter},
		{"paired and faster in every pair", lower, base, scale(base, 0.9), true, Gain},
		{"faster but unpaired", lower, base, scale(base, 0.9), false, WithinBound},
		{"faster in too few pairs", lower, base[:5], scale(base[:5], 0.9), true, WithinBound},
		{"higher is better: drop regresses", higher, base, scale(base, 0.8), false, Regression},
		{"higher is better: rise gains", higher, base, scale(base, 1.2), true, Gain},
		{"unbounded metrics never regress", Metric{Name: "x", Better: "lower"}, base, scale(base, 2), false, Info},
		{"unbounded metrics can gain", Metric{Name: "x", Better: "lower"}, base, scale(base, 0.9), true, Gain},
	} {
		if got := Judge(c.m, c.a, c.b, c.paired); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (%+v), want %s", c.name, got.Verdict, got, c.want)
		}
	}
	// A gain needs nine wins in ten: eight is not enough.
	b := scale(base, 0.9)
	b[0], b[1] = 1.5, 1.5
	if got := Judge(lower, base, b, true); got.Verdict == Gain || got.Wins != 8 || got.Pairs != 10 {
		t.Errorf("eight wins of ten: %+v", got)
	}
	// Ties stay in the count: ten wins and nine ties of twenty pairs is
	// half the pairs, not ten of eleven.
	a20 := append(append([]float64(nil), base...), base...)
	b20 := append(scale(base, 0.8), base[:9]...)
	b20 = append(b20, 1.1)
	unbounded := Metric{Name: "x", Better: "lower"}
	if got := Judge(unbounded, a20, b20, true); got.Verdict != Info || got.Wins != 10 || got.Pairs != 20 {
		t.Errorf("ten wins, nine ties, one loss: %+v", got)
	}
}

func TestSplitSections(t *testing.T) {
	root, _ := loadTestSpec(t)
	out, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sections := splitSections(out)
	var total int
	for id, s := range sections {
		total += len(s)
		if !strings.HasPrefix(string(s), "### "+id+" ") || strings.Count(string(s), "\n### ") != 0 {
			t.Errorf("section %s is not one whole section", id)
		}
	}
	if total != len(out) || sections["fig15"] == nil || sections["ext-critpath"] == nil {
		t.Errorf("sections cover %d of %d bytes; ids %d", total, len(out), len(sections))
	}
}
