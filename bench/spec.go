package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// SpecFile is the benchmark description at the repository root. It is the
// single source of metric units, directions and bounds: the runner prints
// exactly the metrics it declares and compare judges them by its bounds.
const SpecFile = "BENCHMARK.json"

// Metric is one declared metric.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadMetrics are the end-to-end metrics only some workloads report,
// by workload. BENCHMARK.json lists the ones every workload reports, since
// every timed run must print all of those; these are declared here
// instead, their bounds meaning the same, and compare judges them alike.
var workloadMetrics = map[string][]Metric{
	"socialnet-ctl": {{Name: "sim_req_per_s", Unit: "1/s", Better: "higher", Bound: 0.20}},
	"whatif": {
		{Name: "session_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "whatif_early_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "whatif_late_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	},
}

// infoMetrics are reported by every timed run without a bound: the
// warm-up op's time, and the host's speed at each probe (see hostClock).
var infoMetrics = []Metric{
	{Name: "warmup_s", Unit: "s", Better: "lower"},
	{Name: "host_speed", Unit: "ratio", Better: "higher"},
}

// Spec is the part of BENCHMARK.json the benchmark reads.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// FindRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the repository root the benchmark reads its inputs from.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, SpecFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above", SpecFile)
		}
		dir = parent
	}
}

// LoadSpec reads BENCHMARK.json from root.
func LoadSpec(root string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(root, SpecFile))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", SpecFile, err)
	}
	return &s, nil
}

// Declared returns the metric list a run prints: the end-to-end metrics for
// a timed run, the per-layer metrics for a traced one.
func (s *Spec) Declared(traced bool) []Metric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
