package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// The comparison rule for two builds of the program, each measured with
// identical benchmark code and settings:
//
//   - a metric regresses when the change's median is worse than the
//     parent's by more than the metric's bound;
//   - when either side's spread (interquartile distance over median) is
//     wider than the bound, the pair is unresolved, not unchanged —
//     unless every sample of the change reads better than every sample of
//     the parent;
//   - a gain needs paired runs: at least ten pairs, the change winning
//     nine tenths of all pairs run (a tie is no win), and the medians
//     differing by more than the parent's interquartile distance;
//   - more failed operations than the parent is a regression whatever
//     the timings say.

// Verdicts of Judge.
const (
	Regression  = "regression"
	Unresolved  = "unresolved"
	Gain        = "gain"
	AllBetter   = "better"
	WithinBound = "within-bound"
	// Info marks a metric without a bound (per-layer metrics, the
	// warm-up op, the host's speed): reported, and able to show a paired
	// gain, but never a regression.
	Info = "info"
)

// Judgement is the outcome for one (metric, workload) pair.
type Judgement struct {
	Verdict string
	// A and B are the parent's and the change's medians; Delta is their
	// relative difference (B/A - 1).
	A, B, Delta float64
	// Spread is the wider of the two sides' spreads.
	Spread float64
	// Wins counts pairs the change won out of Pairs (0 when unpaired).
	Wins, Pairs int
}

// Judge applies the rule to samples a (parent) and b (change) of metric m.
// paired means a[i] and b[i] come from the i-th pair of alternating runs.
func Judge(m Metric, a, b []float64, paired bool) Judgement {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	j := Judgement{A: ma, B: mb}
	if ma != 0 {
		j.Delta = mb/ma - 1
		j.Spread = math.Abs(qa3-qa1) / math.Abs(ma)
	}
	if mb != 0 {
		j.Spread = max(j.Spread, math.Abs(qb3-qb1)/math.Abs(mb))
	}
	// better(x, y) reports whether x reads better than y.
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	if paired && len(a) == len(b) {
		// Every pair run counts; a tie is neither a win nor a loss.
		j.Pairs = len(a)
		for i := range a {
			if better(b[i], a[i]) {
				j.Wins++
			}
		}
	}
	worse := j.Delta
	if m.Better == "higher" {
		worse = -worse
	}
	gain := j.Pairs >= 10 && float64(j.Wins) >= 0.9*float64(j.Pairs) &&
		better(mb, ma) && math.Abs(mb-ma) > math.Abs(qa3-qa1)
	switch {
	case m.Bound > 0 && j.Spread > m.Bound:
		j.Verdict = Unresolved
		if allBetter(a, b, better) {
			j.Verdict = AllBetter
		}
	case m.Bound > 0 && worse > m.Bound:
		j.Verdict = Regression
	case gain:
		j.Verdict = Gain
	case m.Bound == 0:
		j.Verdict = Info
	default:
		j.Verdict = WithinBound
	}
	return j
}

// allBetter reports whether every b sample reads better than every a one.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// side is one build's results: the runs of one or more result files.
type side struct {
	runs  map[string][]*Run // by workload and kind ("fig15", "fig15+trace")
	files int
}

func runKey(r *Run) string {
	if r.Traced {
		return r.Workload + "+trace"
	}
	return r.Workload
}

func loadSide(paths []string) (*side, error) {
	s := &side{runs: map[string][]*Run{}, files: len(paths)}
	for _, p := range paths {
		res, err := ReadResults(p)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Runs {
			s.runs[runKey(r)] = append(s.runs[runKey(r)], r)
		}
	}
	return s, nil
}

// samples returns the values compared for one metric: the in-run samples
// of a single run, or each run's median when a side has several runs.
func (s *side) samples(key, metric string) []float64 {
	runs := s.runs[key]
	if len(runs) == 1 {
		if m := runs[0].Metrics[metric]; m != nil {
			return m.Values
		}
		return nil
	}
	var out []float64
	for _, r := range runs {
		if m := r.Metrics[metric]; m != nil {
			out = append(out, m.Median)
		}
	}
	return out
}

// metricNames lists the metrics of a run kind, declared or not, sorted.
func (s *side) metricNames(key string) []string {
	var names []string
	for name := range s.runs[key][0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// metricFor returns the declared metric of that name, or an unbounded one
// for a metric the benchmark reports without gating.
func metricFor(spec *Spec, workload string, traced bool, name, unit string) Metric {
	declared := spec.Declared(traced)
	if !traced {
		declared = append(append(append([]Metric(nil), declared...), workloadMetrics[workload]...), infoMetrics...)
	}
	for _, m := range declared {
		if m.Name == name {
			return m
		}
	}
	better := "lower"
	if unit == "1/s" {
		better = "higher"
	}
	return Metric{Name: name, Unit: unit, Better: better}
}

func (s *side) failedFrac(key string) float64 {
	var failed, attempted int
	for _, r := range s.runs[key] {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// Compare judges every metric present on both sides, prints one line per
// (workload, metric) and, per traced workload, the layer whose
// share of the traced unit moved most. Several files per side are runs
// made alternately, paired by position. It reports whether any pair
// regressed.
func Compare(w io.Writer, spec *Spec, parent, change []string) (regressed bool, err error) {
	a, err := loadSide(parent)
	if err != nil {
		return false, err
	}
	b, err := loadSide(change)
	if err != nil {
		return false, err
	}
	paired := a.files > 1 && a.files == b.files
	var keys []string
	for k := range a.runs {
		if _, ok := b.runs[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		traced := a.runs[key][0].Traced
		for _, name := range a.metricNames(key) {
			sa, sb := a.samples(key, name), b.samples(key, name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			m := metricFor(spec, a.runs[key][0].Workload, traced, name, a.runs[key][0].Metrics[name].Unit)
			j := Judge(m, sa, sb, paired)
			if j.Verdict == Regression {
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-26s %-12s %12.6g -> %-12.6g %+7.2f%%  spread %5.2f%%  bound %5.2f%%",
				key, m.Name, j.Verdict, j.A, j.B, 100*j.Delta, 100*j.Spread, 100*m.Bound)
			if j.Pairs > 0 {
				fmt.Fprintf(w, "  wins %d/%d", j.Wins, j.Pairs)
			}
			fmt.Fprintln(w)
		}
		fa, fb := a.failedFrac(key), b.failedFrac(key)
		if fb > fa {
			regressed = true
			fmt.Fprintf(w, "%-18s %-26s %-12s %12.6g -> %-12.6g\n", key, "failed_frac", Regression, fa, fb)
		}
		if traced {
			if layer, sa, sb, ok := mostMovedShare(a.runs[key], b.runs[key]); ok {
				fmt.Fprintf(w, "%-18s share of %s moved most: %.2f%% -> %.2f%% of the traced unit\n",
					key, layer, 100*sa, 100*sb)
			}
		}
	}
	return regressed, nil
}

// mostMovedShare names the layer whose median share of the traced unit's
// wall time changed most between the two sides.
func mostMovedShare(a, b []*Run) (layer string, sa, sb float64, ok bool) {
	med := func(runs []*Run, k string) float64 {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Shares[k])
		}
		return median(vs)
	}
	var layers []string
	for k := range a[0].Shares {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	best := -1.0
	for _, k := range layers {
		x, y := med(a, k), med(b, k)
		if d := math.Abs(y - x); d > best {
			layer, sa, sb, best, ok = k, x, y, d, true
		}
	}
	return layer, sa, sb, ok
}
