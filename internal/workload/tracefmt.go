package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Trace codec: a replayable on-disk form of a Profile. Two encodings are
// accepted, sniffed from the first non-blank line:
//
//	CSV   — a "t_s,region,rate" header followed by one row per setpoint
//	JSONL — one {"t_s":..,"region":"..","rate":..} object per line
//
// Times are seconds from run start with millisecond resolution; rates are
// requests/second (or workers, for closed-loop replay). The parser is
// strict — malformed rows, unsorted timestamps, negative rates and
// duplicate (t, region) keys are all errors — and WriteTrace/ParseTrace
// round-trip bit-identical rates (shortest-form float encoding), so a
// replayed trace reproduces the generating run's schedule exactly.

// TraceHeader is the mandatory first line of the CSV encoding.
const TraceHeader = "t_s,region,rate"

type traceRow struct {
	T      float64 `json:"t_s"`
	Region string  `json:"region"`
	Rate   float64 `json:"rate"`
}

// ParseTrace reads a CSV or JSONL trace and returns it as a validated
// Profile named "trace".
func ParseTrace(r io.Reader) (*Profile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	p := &Profile{Name: TraceProfile}
	jsonl := false
	header := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !header && !jsonl {
			// First content line decides the encoding.
			if strings.HasPrefix(text, "{") {
				jsonl = true
			} else {
				if text != TraceHeader {
					return nil, fmt.Errorf("workload: trace line %d: want the %q header or a JSONL object, got %q",
						line, TraceHeader, text)
				}
				header = true
				continue
			}
		}
		var row traceRow
		if jsonl {
			dec := json.NewDecoder(strings.NewReader(text))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&row); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: %v", line, err)
			}
			if _, err := dec.Token(); err != io.EOF {
				return nil, fmt.Errorf("workload: trace line %d: trailing data after the JSON object", line)
			}
		} else {
			fields := strings.Split(text, ",")
			if len(fields) != 3 {
				return nil, fmt.Errorf("workload: trace line %d: want 3 fields t_s,region,rate, got %d", line, len(fields))
			}
			t, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad time %q", line, fields[0])
			}
			rate, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad rate %q", line, fields[2])
			}
			row = traceRow{T: t, Region: strings.TrimSpace(fields[1]), Rate: rate}
		}
		if math.IsNaN(row.T) || math.IsInf(row.T, 0) || row.T < 0 {
			return nil, fmt.Errorf("workload: trace line %d: time %v must be finite and non-negative", line, row.T)
		}
		ns := secondsToNS(row.T)
		if ns >= math.MaxInt64 {
			return nil, fmt.Errorf("workload: trace line %d: time %v overflows a time.Duration (max %v)",
				line, row.T, time.Duration(math.MaxInt64))
		}
		if !csvSafe(row.Region) {
			return nil, fmt.Errorf("workload: trace line %d: region %q cannot be written back as CSV "+
				"(a comma, a line break, surrounding space or invalid UTF-8)", line, row.Region)
		}
		p.Points = append(p.Points, Point{
			At:     time.Duration(ns),
			Region: row.Region,
			Rate:   row.Rate,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace: %v", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteTrace serializes p in the CSV encoding ParseTrace accepts. Floats
// use the shortest representation that parses back to the same bits, so
// WriteTrace∘ParseTrace is the identity on rates (and on times with
// millisecond resolution).
func WriteTrace(w io.Writer, p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, TraceHeader)
	for _, pt := range p.Points {
		fmt.Fprintf(bw, "%s,%s,%s\n", fmtSeconds(pt.At), pt.Region, fmtFloat(pt.Rate))
	}
	return bw.Flush()
}

// WriteTraceJSONL serializes p in the JSONL encoding.
func WriteTraceJSONL(w io.Writer, p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, pt := range p.Points {
		fmt.Fprintf(bw, `{"t_s":%s,"region":%s,"rate":%s}`+"\n",
			fmtSeconds(pt.At), jsonString(pt.Region), fmtFloat(pt.Rate))
	}
	return bw.Flush()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// secondsToNS is ParseTrace's conversion of a row's time to nanoseconds.
func secondsToNS(s float64) float64 { return math.Round(s * float64(time.Second)) }

// fmtSeconds formats d as the float seconds ParseTrace reads back as d.
// d.Seconds() nearly always is; at millions of seconds its product with
// 1e9 can round a nanosecond away, and then a neighbouring float is (the
// one ParseTrace read d from is among them).
func fmtSeconds(d time.Duration) string {
	x, want := d.Seconds(), float64(d)
	for i := 0; i < 8; i++ {
		switch ns := secondsToNS(x); {
		case ns < want:
			x = math.Nextafter(x, math.Inf(1))
		case ns > want:
			x = math.Nextafter(x, math.Inf(-1))
		default:
			return fmtFloat(x)
		}
	}
	return fmtFloat(d.Seconds())
}

// csvSafe reports whether the CSV encoding carries region unchanged: no
// comma or line break (they split the row), no surrounding space (the
// parser trims fields), and valid UTF-8 (the JSONL encoding would replace
// anything else).
func csvSafe(region string) bool {
	return utf8.ValidString(region) && !strings.ContainsAny(region, ",\n") && strings.TrimSpace(region) == region
}

func jsonString(s string) string {
	b, _ := json.Marshal(s) // cannot fail on a string
	return string(b)
}
