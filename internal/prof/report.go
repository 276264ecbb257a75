package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// The -profile report: a JSON document for machines (CI artifacts) and a
// sorted per-phase table for stderr. Wall-clock
// numbers vary run to run, so neither output is golden-diffed — the
// determinism gates diff the simulation outputs, which profiling leaves
// byte-identical.

// jsonPhase is one phase row of the JSON report.
type jsonPhase struct {
	Phase      string  `json:"phase"`
	Seconds    float64 `json:"seconds"`
	Count      int64   `json:"count"`
	AllocBytes int64   `json:"alloc_bytes,omitempty"`
}

// jsonLabel is one label's (figure's, sweep cell's, session's) profile.
type jsonLabel struct {
	Label       string      `json:"label"`
	Runs        int         `json:"runs"`
	WallSeconds float64     `json:"wall_seconds"`
	Phases      []jsonPhase `json:"phases"`
}

type jsonDoc struct {
	GoMaxProcs int         `json:"gomaxprocs"`
	Labels     []jsonLabel `json:"labels"`
}

func toJSONPhases(totals []PhaseTotal) []jsonPhase {
	out := make([]jsonPhase, 0, len(totals))
	for _, t := range totals {
		out = append(out, jsonPhase{
			Phase: t.Phase.String(), Seconds: t.Seconds,
			Count: t.Count, AllocBytes: t.AllocBytes,
		})
	}
	return out
}

// WriteJSON writes the registry's aggregated phase profile as indented
// JSON: one entry per label plus a "total" rollup, phases in enum order.
func WriteJSON(w io.Writer) error {
	doc := jsonDoc{GoMaxProcs: runtime.GOMAXPROCS(0)}
	var wall float64
	var runs int
	for _, lp := range Aggregate() {
		wall += lp.WallSeconds
		runs += lp.Runs
		doc.Labels = append(doc.Labels, jsonLabel{
			Label: lp.Label, Runs: lp.Runs,
			WallSeconds: lp.WallSeconds, Phases: toJSONPhases(lp.Phases),
		})
	}
	doc.Labels = append(doc.Labels, jsonLabel{
		Label: "total", Runs: runs,
		WallSeconds: wall, Phases: toJSONPhases(Totals()),
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteProfilerJSON writes one profiler's phase breakdown (a
// control-plane session's GET /sessions/{id}/profile body) as a single
// JSON line.
func WriteProfilerJSON(w io.Writer, p *Profiler) error {
	doc := jsonLabel{
		Label: p.Label(), Runs: 1,
		WallSeconds: p.WallSeconds(), Phases: toJSONPhases(p.Totals()),
	}
	return json.NewEncoder(w).Encode(doc)
}

// WriteTable renders the aggregated profile as a human table: one block
// per label, phases sorted by descending seconds, with each phase's
// share of the label's wall time.
func WriteTable(w io.Writer) {
	for _, lp := range Aggregate() {
		fmt.Fprintf(w, "phase profile %s (%d run(s), %.3fs wall):\n",
			lp.Label, lp.Runs, lp.WallSeconds)
		phases := append([]PhaseTotal(nil), lp.Phases...)
		sort.Slice(phases, func(i, j int) bool { return phases[i].Seconds > phases[j].Seconds })
		fmt.Fprintf(w, "  %-10s %10s %7s %12s %12s\n", "phase", "seconds", "share", "calls", "alloc")
		for _, t := range phases {
			share := 0.0
			if lp.WallSeconds > 0 {
				share = t.Seconds / lp.WallSeconds
			}
			alloc := "-"
			if t.AllocBytes > 0 {
				alloc = fmt.Sprintf("%dB", t.AllocBytes)
			}
			fmt.Fprintf(w, "  %-10s %10.4f %6.1f%% %12d %12s\n",
				t.Phase, t.Seconds, share*100, t.Count, alloc)
		}
	}
}
