package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGateMicrobenches runs the ceiling gate over temp files: a gates
// file with an allocs/op and an ns/op ceiling, and benchmark output that
// meets, misses or breaks them.
func TestGateMicrobenches(t *testing.T) {
	dir := t.TempDir()
	gatesFile := filepath.Join(dir, "gates.json")
	gates := `{"allocs_per_op": {"BenchmarkHot": 0, "BenchmarkCell": 600},
	           "ns_per_op": {"BenchmarkHot": 100}}`
	if err := os.WriteFile(gatesFile, []byte(gates), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, out string
		want      bool
	}{
		{"within every ceiling", `
BenchmarkHot-4    100000   95.00 ns/op   0 B/op     0 allocs/op
BenchmarkCell-4       12    30.0e6 ns/op 900 B/op  499 allocs/op
`, true},
		{"gated benchmark absent", `
BenchmarkHot-4    100000   95.00 ns/op   0 B/op     0 allocs/op
`, false},
		{"allocs over ceiling", `
BenchmarkHot-4    100000   95.00 ns/op  16 B/op     1 allocs/op
BenchmarkCell-4       12    30.0e6 ns/op 900 B/op  499 allocs/op
`, false},
		{"without -benchmem", `
BenchmarkHot-4    100000   95.00 ns/op
BenchmarkCell-4       12    30.0e6 ns/op
`, false},
		{"ns over ceiling", `
BenchmarkHot-4    100000  101.00 ns/op   0 B/op     0 allocs/op
BenchmarkCell-4       12    30.0e6 ns/op 900 B/op  499 allocs/op
`, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, fmt.Sprintf("bench%d.txt", i))
			if err := os.WriteFile(out, []byte(tc.out), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := gateMicrobenches(out, gatesFile); got != tc.want {
				t.Errorf("gateMicrobenches = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestParseBenchOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	body := `goos: linux
BenchmarkEngineCalendar-4   100000  95.15 ns/op  0 B/op  0 allocs/op
BenchmarkNoMem-4            100000  12.00 ns/op
PASS
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := parseBenchOut(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("parsed %d lines, want 2", len(lines))
	}
	if lines[0].name != "BenchmarkEngineCalendar" || lines[0].nsOp != 95.15 ||
		!lines[0].hasMem || lines[0].allocs != 0 {
		t.Errorf("parsed %+v", lines[0])
	}
	if lines[1].name != "BenchmarkNoMem" || lines[1].hasMem {
		t.Errorf("parsed %+v", lines[1])
	}
}

func TestGateOverhead(t *testing.T) {
	if !gateOverhead("12.31:12.49:1.03") {
		t.Error("1.5% overhead rejected against a 3% budget")
	}
	if gateOverhead("10.00:10.50:1.03") {
		t.Error("5% overhead accepted against a 3% budget")
	}
	// Faster with profiling on (measurement noise) still passes.
	if !gateOverhead("10.00:9.90:1.03") {
		t.Error("negative overhead rejected")
	}
	// A max of 1.0 demands the second run be no slower than the first:
	// the 8-worker regeneration against the sequential one.
	if !gateOverhead("4.96:2.81:1.0") {
		t.Error("a faster second run rejected at a 1.0 ratio")
	}
	if gateOverhead("4.96:5.10:1.0") {
		t.Error("a slower second run accepted at a 1.0 ratio")
	}
	for _, bad := range []string{"", "1:2", "a:b:c", "0:1:1.03", "1:0:1.03", "1:1:0.9"} {
		if gateOverhead(bad) {
			t.Errorf("malformed spec %q accepted", bad)
		}
	}
}
