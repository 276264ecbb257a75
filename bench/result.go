package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Env records the machine and build a result was measured on; a result
// without it cannot be compared honestly with another.
type Env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Dirty      bool   `json:"vcs_dirty"`
	CPU        string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// CurrentEnv describes this process. The VCS fields come from the build
// stamp, so a binary built outside a git checkout reports "unknown".
func CurrentEnv() Env {
	e := Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		CPU:        cpuModel(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Run is the outcome of one workload run: every sample of every metric it
// measured, and how many of its output checks failed.
type Run struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       Env                `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]*Series `json:"metrics"`
	// Shares is, for a traced run, each layer's estimated share of the
	// traced unit's wall time (see layerMetrics).
	Shares map[string]float64 `json:"shares,omitempty"`
}

func (r *Run) set(name, unit string, values ...float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]*Series)
	}
	r.Metrics[name] = newSeries(unit, values...)
}

// failure records one failed check.
func (r *Run) failure(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Results is the file -out writes and compare reads: every run of one
// benchmark invocation.
type Results struct {
	Runs []*Run `json:"runs"`
}

// ReadResults loads a results file.
func ReadResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// WriteResults writes r as indented JSON.
func WriteResults(path string, r *Results) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// PrintLines writes every metric of the run as "workload metric value
// unit", sorted by name, with the median as the value.
func PrintLines(w io.Writer, r *Run) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, n, s.Median, s.Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s failed_frac %v ratio\n", r.Workload, frac)
}

// SummaryLine is the one-line JSON result: the declared metrics of the
// run's kind, each as its median. It is an error for a declared metric to
// be missing, so a run can never silently print a partial result.
func SummaryLine(r *Run, declared []Metric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(declared))
	for _, m := range declared {
		s, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: declared metric %s was not measured", r.Workload, m.Name)
		}
		if s.Unit != m.Unit {
			return nil, fmt.Errorf("%s: metric %s measured in %s, declared in %s", r.Workload, m.Name, s.Unit, m.Unit)
		}
		metrics[m.Name] = value{s.Median, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}
