package server

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"servicefridge/internal/workload"
)

// FuzzParseWhatIf feeds arbitrary bytes to the what-if query parser. Its
// seeds are the committed service-smoke what-if bodies, the query the
// benchmark sends, and bodies that were once answered as their first
// document. An accepted query must have every number finite and inside
// validate's ranges, must parse back from its json.Marshal form to an
// equal query, and must be refused once a second document follows it.
func FuzzParseWhatIf(f *testing.F) {
	bodies, err := filepath.Glob(filepath.Join("..", "..", "testdata", "service_smoke", "whatif*.json"))
	if err != nil || len(bodies) == 0 {
		f.Fatalf("no committed what-if bodies (%v)", err)
	}
	for _, path := range bodies {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{
		`{"at_s":6,"budget":0.75}`,
		`{"at_s":6,"budget":0.75}{"budget":0.1}`,
		`{"at_s":6,"budget":0.75} junk`,
		`{"at_s":6,"budget":0.75}}`,
		`{"at_s":6,"budget":0.75}]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := parseWhatIf(bytes.NewReader(data))
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"at_s": q.AtS, "budget": q.Budget, "max_freq_ghz": q.MaxFreqGHz,
			"load_factor": q.LoadFactor, "rate_factor": q.RateFactor, "rate": q.Rate,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted %q has %s %v", data, name, v)
			}
		}
		if q.Budget > 1 {
			t.Fatalf("accepted %q has budget %v", data, q.Budget)
		}
		if q == (WhatIfRequest{AtS: q.AtS}) {
			t.Fatalf("accepted %q perturbs nothing", data)
		}
		if _, ok := workload.Lookup(q.Profile); q.Profile != "" && !ok {
			t.Fatalf("accepted %q names unknown profile %q", data, q.Profile)
		}
		if q.Rate != 0 && q.Profile == "" {
			t.Fatalf("accepted %q has a rate without a profile", data)
		}
		canon, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal %+v: %v", q, err)
		}
		back, err := parseWhatIf(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("%q marshals to %s, which is refused: %v", data, canon, err)
		}
		if back != q {
			t.Fatalf("%q marshals to %s, which parses to %+v, want %+v", data, canon, back, q)
		}
		twice := append(append([]byte(nil), data...), `{"budget":0.5}`...)
		if _, err := parseWhatIf(bytes.NewReader(twice)); err == nil {
			t.Fatalf("%q accepted with a second document after it", twice)
		}
	})
}
