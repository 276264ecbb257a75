package workload

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestParseTraceCSV(t *testing.T) {
	in := strings.Join([]string{
		TraceHeader,
		"0,A,10",
		"0,B,4.5",
		"",                // blank lines are skipped
		" 1.25 , A , 20 ", // whitespace around fields is tolerated
		"2,A,0",           // rate zero is a legal setpoint (stop the region)
	}, "\n")
	p, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if p.Name != TraceProfile {
		t.Fatalf("profile name %q, want %q", p.Name, TraceProfile)
	}
	want := []Point{
		{At: 0, Region: "A", Rate: 10},
		{At: 0, Region: "B", Rate: 4.5},
		{At: 1250 * time.Millisecond, Region: "A", Rate: 20},
		{At: 2 * time.Second, Region: "A", Rate: 0},
	}
	if len(p.Points) != len(want) {
		t.Fatalf("got %d points, want %d: %+v", len(p.Points), len(want), p.Points)
	}
	for i := range want {
		if p.Points[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, p.Points[i], want[i])
		}
	}
}

func TestParseTraceJSONL(t *testing.T) {
	in := `{"t_s":0,"region":"A","rate":10}
{"t_s":0.5,"region":"B","rate":7.25}
`
	p, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(p.Points) != 2 || p.Points[1].At != 500*time.Millisecond || p.Points[1].Rate != 7.25 {
		t.Fatalf("unexpected points: %+v", p.Points)
	}
}

func TestParseTraceRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"blank only", "\n\n  \n"},
		{"bad header", "time,region,rate\n0,A,1"},
		{"header only", TraceHeader + "\n"},
		{"too few fields", TraceHeader + "\n0,A"},
		{"too many fields", TraceHeader + "\n0,A,1,extra"},
		{"bad time", TraceHeader + "\nzero,A,1"},
		{"bad rate", TraceHeader + "\n0,A,fast"},
		{"negative time", TraceHeader + "\n-1,A,1"},
		{"infinite time", TraceHeader + "\n+Inf,A,1"},
		{"negative rate", TraceHeader + "\n0,A,-3"},
		{"nan rate", TraceHeader + "\n0,A,NaN"},
		{"empty region", TraceHeader + "\n0,,1"},
		{"unsorted", TraceHeader + "\n2,A,1\n1,A,2"},
		{"duplicate key", TraceHeader + "\n1,A,1\n1,A,2"},
		{"jsonl unknown field", `{"t_s":0,"region":"A","rate":1,"extra":true}`},
		{"jsonl bad type", `{"t_s":"0","region":"A","rate":1}`},
		{"jsonl garbage", `{not json}`},
		{"jsonl unsorted", `{"t_s":2,"region":"A","rate":1}` + "\n" + `{"t_s":1,"region":"A","rate":1}`},
		// Regions the CSV encoding cannot write back, and a time past the
		// time.Duration range, which would wrap negative.
		{"jsonl region with a comma", `{"t_s":0,"region":"A,B","rate":1}`},
		{"jsonl region with surrounding space", `{"t_s":0,"region":" A","rate":1}`},
		{"jsonl region with a line break", `{"t_s":0,"region":"A\nB","rate":1}`},
		{"region not UTF-8", TraceHeader + "\n0,\xff,1"},
		{"time overflow", TraceHeader + "\n1e300,A,1"},
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: ParseTrace accepted %q", c.name, c.in)
		}
	}
	_, err := ParseTrace(strings.NewReader(TraceHeader + "\n1e300,A,1"))
	if want := "trace line 2: time 1e+300 overflows a time.Duration"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("time overflow: error %v, want it to say %q", err, want)
	}
	// Duplicate (t, region) keys are rejected, but the same instant across
	// different regions is legal.
	ok := TraceHeader + "\n1,A,1\n1,B,2"
	if _, err := ParseTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("same-time different-region rows rejected: %v", err)
	}
}

// TestTraceRoundTrip: for every generator output, CSV and JSONL encodings
// parse back to the identical point sequence — the property the
// trace-replay experiment leg and the committed goldens rest on.
func TestTraceRoundTrip(t *testing.T) {
	in := GenInput{
		Regions: []string{"A", "B"},
		Rates:   map[string]float64{"A": 33.37, "B": 19.1},
		Horizon: 35 * time.Second,
		Seed:    3,
	}
	for _, name := range Names() {
		reg, _ := Lookup(name)
		p, err := reg.New(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for enc, write := range map[string]func(*Profile) (string, error){
			"csv": func(p *Profile) (string, error) {
				var b strings.Builder
				err := WriteTrace(&b, p)
				return b.String(), err
			},
			"jsonl": func(p *Profile) (string, error) {
				var b strings.Builder
				err := WriteTraceJSONL(&b, p)
				return b.String(), err
			},
		} {
			text, err := write(p)
			if err != nil {
				t.Fatalf("%s/%s: write: %v", name, enc, err)
			}
			back, err := ParseTrace(strings.NewReader(text))
			if err != nil {
				t.Fatalf("%s/%s: reparse: %v", name, enc, err)
			}
			if len(back.Points) != len(p.Points) {
				t.Fatalf("%s/%s: %d points round-tripped to %d", name, enc, len(p.Points), len(back.Points))
			}
			for i := range p.Points {
				if back.Points[i] != p.Points[i] {
					t.Errorf("%s/%s: point %d: %+v round-tripped to %+v",
						name, enc, i, p.Points[i], back.Points[i])
				}
			}
		}
	}
}

func TestWriteTraceRejectsInvalid(t *testing.T) {
	var b strings.Builder
	if err := WriteTrace(&b, pts()); err == nil {
		t.Error("WriteTrace accepted an empty profile")
	}
	if err := WriteTraceJSONL(&b, pts(Point{At: 0, Region: "A", Rate: -1})); err == nil {
		t.Error("WriteTraceJSONL accepted a negative rate")
	}
}

// FuzzParseTrace feeds arbitrary bytes to the trace parser. Its seed
// corpus (testdata/fuzz/FuzzParseTrace) holds the committed traces, a
// JSONL trace, and the inputs that once parsed but could not be written
// back (a region with a comma, a region with surrounding space) or were
// misreported (a time past the time.Duration range). An accepted trace
// must survive both encodings: ParseTrace∘WriteTrace and
// ParseTrace∘WriteTraceJSONL return the same profile.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for enc, write := range map[string]func(io.Writer, *Profile) error{
			"csv": WriteTrace, "jsonl": WriteTraceJSONL,
		} {
			var b bytes.Buffer
			if err := write(&b, p); err != nil {
				t.Fatalf("%s: writing an accepted trace: %v", enc, err)
			}
			back, err := ParseTrace(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatalf("%s: %q does not parse back: %v", enc, b.String(), err)
			}
			if !slices.Equal(back.Points, p.Points) {
				t.Fatalf("%s: %+v round-tripped to %+v", enc, p.Points, back.Points)
			}
		}
	})
}
