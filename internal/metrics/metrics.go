// Package metrics provides the statistics the paper reports: mean response
// time and percentile tail latencies (p90/p95/p99) over exact sorted
// samples, normalized summaries (Figure 15 normalizes service time to the
// uncapped baseline), Kendall rank correlation, bounded-memory streaming
// and windowed histograms for live telemetry, and the aligned text and CSV
// tables every experiment prints.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"servicefridge/internal/sim"
)

// LatencyStats accumulates duration samples and answers the paper's
// latency questions. Percentiles are exact (samples are retained); the
// experiments are bounded, so memory is not a concern.
type LatencyStats struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
}

// FromSamples wraps an existing slice (copied, in one allocation).
func FromSamples(ds []time.Duration) *LatencyStats {
	s := &LatencyStats{samples: append(make([]time.Duration, 0, len(ds)), ds...)}
	for _, d := range ds {
		s.sum += d
	}
	return s
}

// Add records one sample.
func (s *LatencyStats) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sum += d
	s.sorted = false
}

// Count returns the number of samples.
func (s *LatencyStats) Count() int { return len(s.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *LatencyStats) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / time.Duration(len(s.samples))
}

func (s *LatencyStats) sort() {
	if !s.sorted {
		slices.Sort(s.samples)
		s.sorted = true
	}
}

// Percentile returns the q-quantile (q in [0,1]) with linear
// interpolation, delegating to sim.Quantile — the single definition of
// "percentile" shared by every experiment — so the two can never diverge.
func (s *LatencyStats) Percentile(q float64) time.Duration {
	s.sort()
	return sim.Quantile(s.samples, q)
}

// P90, P95 and P99 are the tail percentiles of Figure 15.
func (s *LatencyStats) P90() time.Duration { return s.Percentile(0.90) }

// P95 returns the 95th percentile.
func (s *LatencyStats) P95() time.Duration { return s.Percentile(0.95) }

// P99 returns the 99th percentile.
func (s *LatencyStats) P99() time.Duration { return s.Percentile(0.99) }

// Min returns the smallest sample, or 0 with no samples. The endpoints
// are read directly after sorting — no quantile interpolation.
func (s *LatencyStats) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (s *LatencyStats) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

// StdDev returns the population standard deviation.
func (s *LatencyStats) StdDev() time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, d := range s.samples {
		diff := float64(d) - mean
		acc += diff * diff
	}
	return time.Duration(math.Sqrt(acc / float64(n)))
}

// Summary is the row shape of the paper's QoS tables.
type Summary struct {
	Count            int
	Mean             time.Duration
	P90, P95, P99    time.Duration
	Min, Max, StdDev time.Duration
}

// Summarize computes all fields at once.
func (s *LatencyStats) Summarize() Summary {
	return Summary{
		Count: s.Count(), Mean: s.Mean(),
		P90: s.P90(), P95: s.P95(), P99: s.P99(),
		Min: s.Min(), Max: s.Max(), StdDev: s.StdDev(),
	}
}

// NormalizedSummary expresses a summary relative to a baseline duration,
// as Figure 15 normalizes to the no-throttling execution time.
type NormalizedSummary struct {
	Mean, P90, P95, P99 float64
}

// NormalizeTo divides the summary's latencies by base.
func (s Summary) NormalizeTo(base time.Duration) NormalizedSummary {
	if base <= 0 {
		return NormalizedSummary{}
	}
	f := func(d time.Duration) float64 { return float64(d) / float64(base) }
	return NormalizedSummary{Mean: f(s.Mean), P90: f(s.P90), P95: f(s.P95), P99: f(s.P99)}
}

// Table renders aligned text tables for the experiment harness. Cells are
// strings; the first row is the header.
type Table struct {
	Title string
	rows  [][]string
}

// NewTable creates a table with the given header cells.
func NewTable(title string, header ...string) *Table {
	t := &Table{Title: title}
	t.rows = append(t.rows, header)
	return t
}

// Row appends a row; extra/missing cells relative to the header are
// allowed but discouraged.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Rowf appends a row where each cell is formatted with %v.
func (t *Table) Rowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmtDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows (excluding the header).
func (t *Table) NumRows() int { return len(t.rows) - 1 }

func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := map[int]int{}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for ri, row := range t.rows {
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
		if ri == 0 {
			total := 0
			for i := range row {
				total += widths[i] + 2
			}
			b.WriteString(strings.Repeat("-", total))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// CSV renders the table as RFC-4180-style comma-separated values (header
// first, no title line), for feeding plots.
func (t *Table) CSV() string {
	var b strings.Builder
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Ms formats a duration as fractional milliseconds, the unit of every
// figure in the paper.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
