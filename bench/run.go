package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"servicefridge/internal/experiments"
	"servicefridge/internal/prof"
)

// Options configures one workload run.
type Options struct {
	// Root is the repository root inputs are read from.
	Root    string
	Seed    uint64
	Seconds float64
	// Traced selects the per-layer run instead of the timed one.
	Traced bool
	// TraceDir, when set, receives <workload>.trace.json from a traced run.
	TraceDir string
	// Queries is the what-ifs per fork point and session (whatif only;
	// 0 means the benchmark's 5).
	Queries int
}

const (
	// setUpRounds is how often set-up runs before the warm-up op; it runs
	// again before every op or unit pair, and setup_s is the median of
	// every repetition.
	setUpRounds = 3
	// setUpMin is how long one set-up round lasts at least: it repeats the
	// set-up steps until then, so a set-up of a few milliseconds still
	// gives enough samples for a steady median.
	setUpMin = 100 * time.Millisecond
	// maxPairs bounds the untraced/traced unit pairs of a traced run.
	maxPairs = 9
)

// extras collects samples by metric name.
type extras map[string][]float64

func (x extras) add(name string, v float64) { x[name] = append(x[name], v) }

// RunWorkload runs one workload: its set-up steps (timed, repeated), a
// verified warm-up op, then either the timed ops or the untraced/traced
// unit pairs and probes. Host times are scaled to the reference speed
// (see hostClock), with a speed probe between every two timed steps.
func RunWorkload(name string, opt Options) (*Run, error) {
	w, err := newWorkload(name, opt)
	if err != nil {
		return nil, err
	}
	if wi, ok := w.(*whatif); ok {
		defer wi.close()
	}
	run := &Run{Workload: name, Seed: opt.Seed, Seconds: int(opt.Seconds), Traced: opt.Traced, Env: CurrentEnv()}
	c, err := newChecker(run, opt.Root)
	if err != nil {
		return nil, err
	}
	// One simulation goroutine: the figure harness fans cells out only
	// as wide as this.
	experiments.SetParallelism(1)

	h := &hostClock{raw: extras{}}
	h.probe()
	// Set-up is timed many times, spread over the whole run, so that its
	// median does not rest on one moment of the host.
	setUp := func() error {
		for start := time.Now(); ; {
			runtime.GC()
			t := time.Now()
			if err := w.setUp(); err != nil {
				return fmt.Errorf("%s set-up: %w", name, err)
			}
			h.raw.add("setup_s", time.Since(t).Seconds())
			if time.Since(start) >= setUpMin {
				break
			}
		}
		h.probe()
		return nil
	}
	for i := 0; i < setUpRounds; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	// The warm-up op fills lazy state (the harness's calibration cache,
	// pools, the heap's size) before anything is timed, and is verified
	// like every op.
	t := time.Now()
	if err := w.op(c, extras{}); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	h.raw.add("warmup_s", time.Since(t).Seconds())
	h.probe()

	if opt.Traced {
		err = traced(w, run, c, opt, setUp)
	} else {
		err = timed(w, run, c, opt, h, setUp)
	}
	if err != nil {
		return nil, err
	}
	for name, vs := range h.scaled() {
		run.set(name, unitOf(name), vs...)
	}
	run.set("host_speed", "ratio", h.speeds...)
	return run, nil
}

// timed runs ops until opt.Seconds have passed and records the end-to-end
// metrics.
func timed(w workload, run *Run, c *checker, opt Options, h *hostClock, setUp func() error) error {
	var allocs, mb []float64
	var before, after runtime.MemStats
	deadline := time.Now().Add(time.Duration(opt.Seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := setUp(); err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		t := time.Now()
		err := w.op(c, h.raw)
		d := time.Since(t)
		runtime.ReadMemStats(&after)
		if err != nil {
			c.fail("%s op: %v", run.Workload, err)
		} else {
			h.raw.add("wall_s", d.Seconds())
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
			mb = append(mb, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
		h.probe()
	}
	if len(allocs) == 0 {
		return fmt.Errorf("%s: every op failed", run.Workload)
	}
	run.set("allocs_per_op", "count", allocs...)
	run.set("alloc_mb_per_op", "MB", mb...)

	// Live heap with one finished run held. Two collections: the first
	// moves sync.Pool contents to their victim caches, the second frees
	// them, so pooled scratch does not count.
	var release func() error
	var err error
	if wi, ok := w.(*whatif); ok {
		release, err = wi.hold()
	} else {
		release, err = holdUnit(w)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", run.Workload, err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	run.set("heap_live_mb", "MB", float64(after.HeapAlloc)/1e6)
	if err := release(); err != nil {
		return err
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	run.set("peak_rss_mb", "MB", float64(ru.Maxrss)*1024/1e6) // Maxrss is in KiB on Linux
	return nil
}

// traced runs untraced/traced unit pairs for half of opt.Seconds (at
// least one pair), checks that tracing is passive, runs the probes, and
// records the per-layer metrics.
func traced(w workload, run *Run, c *checker, opt Options, setUp func() error) error {
	var plain, tr []*unitRun
	wi, isWhatif := w.(*whatif)
	x := extras{}
	deadline := time.Now().Add(time.Duration(opt.Seconds / 2 * float64(time.Second)))
	for i := 0; i < maxPairs && (i == 0 || time.Now().Before(deadline)); i++ {
		if err := setUp(); err != nil {
			return err
		}
		if isWhatif {
			// The same session over HTTP, for the server's overhead.
			if err := wi.op(c, x); err != nil {
				return err
			}
		}
		pair := [2]*unitRun{}
		for k, tracedRun := range []bool{false, true} {
			u := newUnitRun(tracedRun, 2*i+k, run.Workload)
			u.begin(run.Workload + ".unit")
			if err := w.unit(u); err != nil {
				return fmt.Errorf("%s unit: %w", run.Workload, err)
			}
			u.end()
			u.settle()
			c.check(run.Workload+"/unit", u.digest)
			pair[k] = u
		}
		plain, tr = append(plain, pair[0]), append(tr, pair[1])
		run.Attempted++
		if a, b := pair[0].acc, pair[1].acc; a != b {
			run.failure("%s: tracing is not passive: untraced counts %+v, traced %+v", run.Workload, a, b)
		}
	}

	first := tr[0]
	probes := runProbes(shape{
		seed:      run.Seed,
		spec:      first.spec,
		keepSpans: first.keepSpans,
		pending:   int(median(first.pending)),
		mix:       first.acc.byRegion,
	})
	layerMetrics(run, plain, tr, probes)
	if isWhatif {
		serverOverhead(run, x, plain)
	}
	if opt.TraceDir != "" {
		return writeTrace(filepath.Join(opt.TraceDir, run.Workload+".trace.json"), run, tr)
	}
	return nil
}

// perCall is seconds/count in the given unit scale, or false when the
// phase never ran.
func perCall(t prof.PhaseTotal, scale float64) (float64, bool) {
	if t.Count == 0 {
		return 0, false
	}
	return t.Seconds * scale / float64(t.Count), true
}

// layerMetrics records the per-layer metrics: each traced unit
// contributes one sample per metric, probes contribute their batches.
func layerMetrics(run *Run, plain, tr []*unitRun, probes probeResults) {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for name, vs := range probes {
		samples[name] = vs
	}
	pr := func(name string) float64 { return median(probes[name]) }

	var shares []map[string]float64
	for i, u := range tr {
		phases := map[prof.Phase]prof.PhaseTotal{}
		for _, t := range u.prof.Totals() {
			phases[t.Phase] = t
		}
		req := float64(u.acc.requests)
		inv := float64(phases[prof.Exec].Count)
		add("sim.events_per_req", float64(u.acc.events)/req)
		var sliceNs, sliceEvents float64
		for _, s := range u.spans {
			if s.Name == "sim.slice" {
				sliceNs += float64(s.Dur())
				sliceEvents += float64(s.Events)
			}
		}
		add("sim.event_ns", sliceNs/sliceEvents)
		add("sim.pending_p50", median(u.pending))
		add("cluster.jobs_per_req", float64(u.acc.jobs)/req)
		add("cluster.freq_changes", float64(u.acc.freqChanges))
		add("orchestrator.migrations", float64(u.acc.migrations))
		add("trace.spans_per_req", inv/req)
		add("trace.traces_retained", float64(u.retained))
		add("power.samples", float64(u.acc.powerSamples))
		for _, p := range []struct {
			name  string
			phase prof.Phase
		}{
			{"fridge.tick_us", prof.Tick}, {"fridge.zones_us", prof.Zones}, {"core.mcf_us", prof.MCF},
			{"telemetry.sample_us", prof.Telemetry}, {"obs.encode_us", prof.Encode}, {"obs.seal_us", prof.Seal},
		} {
			if v, ok := perCall(phases[p.phase], 1e6); ok {
				add(p.name, v)
			}
		}
		for _, p := range []struct {
			name  string
			phase prof.Phase
		}{
			{"fridge.ticks", prof.Tick}, {"obs.events", prof.Encode},
			{"obs.ledger_entries", prof.Seal}, {"telemetry.samples", prof.Telemetry},
		} {
			if n := phases[p.phase].Count; n > 0 {
				add(p.name, float64(n))
			}
		}
		for _, name := range []string{"engine.build", "engine.snapshot", "engine.restore", "engine.branch",
			"engine.fork_replay", "engine.resume_replay", "trace.critpath"} {
			if ds := u.durations(name); len(ds) > 0 {
				add(name+"_ms", median(ds)/1e6)
			}
		}
		add("bench.trace_overhead", u.wall()/plain[i].wall()-1)

		// Request-path attribution: counts × probe costs against the
		// profiler's dispatch seconds (the run loop's self time, which
		// excludes the control-rate phases).
		sh := map[string]float64{
			"sim":          float64(u.acc.events) * pr("sim.calendar_ns"),
			"cluster":      float64(u.acc.jobs) * max(0, pr("cluster.job_ns")-pr("sim.calendar_ns")),
			"orchestrator": inv * pr("orchestrator.hostfor_ns"),
			"trace":        req * pr("trace.request_ns"),
		}
		perReq := pr("app.request_events")*pr("sim.calendar_ns") +
			inv/req*(max(0, pr("cluster.job_ns")-pr("sim.calendar_ns"))+pr("orchestrator.hostfor_ns")) +
			pr("trace.request_ns")
		sh["app"] = req * max(0, pr("app.request_ns")-perReq)
		if u.fridge {
			// Fridge schemes wrap the launcher with the MCF counter.
			sh["core"] = req * pr("core.counter_ns")
		}
		explained := 0.0
		for _, v := range sh {
			explained += v
		}
		dispatch := phases[prof.Dispatch].Seconds * 1e9
		add("bench.unattributed_frac", 1-explained/dispatch)
		sh["core"] += phases[prof.MCF].Seconds * 1e9
		sh["fridge"] = (phases[prof.Tick].Seconds + phases[prof.Zones].Seconds) * 1e9
		sh["telemetry"] = phases[prof.Telemetry].Seconds * 1e9
		sh["obs"] = (phases[prof.Encode].Seconds + phases[prof.Seal].Seconds) * 1e9
		sh["engine"] = (phases[prof.Build].Seconds + phases[prof.Snapshot].Seconds) * 1e9
		wall := u.wall()
		for k, v := range sh {
			sh[k] = v / wall
		}
		shares = append(shares, sh)
	}
	for name, vs := range samples {
		run.set(name, unitOf(name), vs...)
	}
	run.Shares = map[string]float64{}
	for k := range shares[0] {
		var vs []float64
		for _, sh := range shares {
			vs = append(vs, sh[k])
		}
		run.Shares[k] = median(vs)
	}
}

// serverOverhead compares the HTTP what-if and session times with the
// same calls made directly on the engine API by the untraced units.
func serverOverhead(run *Run, x extras, plain []*unitRun) {
	var query, session []float64
	for _, u := range plain {
		query = append(query, u.durations("whatif.query")...)
		session = append(session, u.durations("engine.session")...)
	}
	viaHTTP := median(append(append([]float64(nil), x["whatif_early_ms"]...), x["whatif_late_ms"]...))
	run.set("server.whatif_overhead_ms", "ms", viaHTTP-median(query)/1e6)
	run.set("server.session_overhead_ms", "ms", median(x["session_s"])*1e3-median(session)/1e6)
}

// unitOf derives the unit of a per-layer or workload-specific metric
// from its name's suffix.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ns", "ns"}, {"_us", "us"}, {"_ms", "ms"}, {"_per_s", "1/s"}, {"_s", "s"},
		{"_frac", "ratio"}, {"_overhead", "ratio"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// writeTrace writes the traced units' spans and the per-layer metrics.
func writeTrace(path string, run *Run, tr []*unitRun) error {
	var spans []Span
	for _, u := range tr {
		spans = append(spans, u.spans...)
	}
	metrics := map[string]float64{}
	for name, s := range run.Metrics {
		metrics[name] = s.Median
	}
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Env      Env                `json:"env"`
		Metrics  map[string]float64 `json:"metrics"`
		Shares   map[string]float64 `json:"shares"`
		Spans    []Span             `json:"spans"`
	}{run.Workload, run.Seed, run.Env, metrics, run.Shares, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
