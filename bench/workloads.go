package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"servicefridge/internal/cliutil"
	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
	"servicefridge/internal/power"
	"servicefridge/internal/prof"
)

// Names lists the workloads in the order the benchmark runs them.
var Names = []string{"fig15", "spans", "socialnet-ctl", "whatif"}

// workload is one benchmark workload. Its methods run on the benchmark's
// single goroutine (the whatif server adds its own session goroutines).
type workload interface {
	// setUp does the set-up the timed phase depends on: calibration,
	// scenario loading and engine build, server start and a first
	// session. It is repeated and timed; the state of the last call is
	// kept.
	setUp() error
	// op runs one timed operation and verifies its outputs, appending any
	// workload-specific samples to x.
	op(c *checker, x extras) error
	// unit runs the workload's unit once (see unitRun).
	unit(u *unitRun) error
}

func newWorkload(name string, opt Options) (workload, error) {
	switch name {
	case "fig15":
		e, _ := experiments.ByID("fig15")
		return &fig15{seed: opt.Seed, exp: e}, nil
	case "spans":
		f16, _ := experiments.ByID("fig16")
		crit, _ := experiments.ByID("ext-critpath")
		return &spans{seed: opt.Seed, fig16: f16, crit: crit}, nil
	case "socialnet-ctl":
		return &socialnet{root: opt.Root, seed: opt.Seed}, nil
	case "whatif":
		q := opt.Queries
		if q <= 0 {
			q = 5
		}
		return &whatif{root: opt.Root, seed: opt.Seed, queries: q}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, Names)
}

// The study-cell configuration below mirrors the §6.4 comparison cells
// and the calibration run of internal/experiments, whose helpers are
// unexported: the benchmark reaches the simulator only through public
// functions. TestFig15UnitMatchesFigure15 holds the copy to the original.

var fig15Budgets = []float64{1.0, 0.95, 0.90, 0.85, 0.80, 0.75}

func studyPools() map[string]int { return map[string]int{"A": 25, "B": 25} }

// calibrationConfig is the run whose peak draw the study budgets refer to.
func calibrationConfig(seed uint64) engine.Config {
	return engine.Config{Seed: seed, PoolWorkers: studyPools(), Duration: 20 * time.Second}
}

func studyCell(seed uint64, maxReq power.Watts, budget float64, keepSpans bool, p *prof.Profiler) engine.Config {
	return engine.Config{
		Seed:           seed,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: budget,
		MaxRequired:    maxReq,
		PoolWorkers:    studyPools(),
		Warmup:         5 * time.Second,
		Duration:       25 * time.Second,
		KeepSpans:      keepSpans,
		Prof:           p,
	}
}

// holdUnit runs the workload's unit and keeps its finished run live until
// release.
func holdUnit(w workload) (release func() error, err error) {
	u := newUnitRun(false, 0, "")
	if err := w.unit(u); err != nil {
		return nil, err
	}
	res := u.res
	return func() error {
		runtime.KeepAlive(res)
		return nil
	}, nil
}

// build wraps BuildE in a span.
func build(u *unitRun, cfg engine.Config) (res *engine.Result, err error) {
	u.timed("engine.build", func() { res, err = engine.BuildE(cfg) })
	return res, err
}

// fig15 regenerates Figure 15 with warm-started sweeps. Its unit is the
// ServiceFridge warm-start group: one donor warmed to its barrier,
// snapshotted, and forked into every budget cell.
type fig15 struct {
	seed   uint64
	exp    experiments.Experiment
	maxReq power.Watts
}

func (w *fig15) setUp() error {
	experiments.SetWarmStart(true)
	w.maxReq = engine.CalibrateMaxRequired(calibrationConfig(w.seed))
	return nil
}

func (w *fig15) op(c *checker, _ extras) error {
	c.check(w.exp.ID, renderSection(w.exp.ID, w.exp.Title, w.exp.Run(w.seed)))
	return nil
}

func (w *fig15) unit(u *unitRun) error {
	sums, err := w.group(u)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	for i, b := range fig15Budgets {
		fmt.Fprintf(&out, "budget %v: A %+v B %+v\n", b, sums[i][0], sums[i][1])
	}
	u.digest = out.Bytes()
	return nil
}

// group runs the warm-start group and returns each budget cell's summaries
// of regions A and B.
func (w *fig15) group(u *unitRun) ([][2]metrics.Summary, error) {
	donor, err := build(u, studyCell(w.seed, w.maxReq, fig15Budgets[0], false, u.prof))
	if err != nil {
		return nil, err
	}
	u.begin("engine.warm")
	u.advance(donor, donor.WarmBarrier())
	u.end()
	var snap *engine.RunState
	u.timed("engine.snapshot", func() { snap = donor.Snapshot() })
	var sums [][2]metrics.Summary
	for _, b := range fig15Budgets {
		u.timed("engine.restore", func() {
			donor.Restore(snap)
			donor.SetBudgetFraction(b)
		})
		u.begin("engine.branch")
		u.finish(donor)
		u.end()
		sums = append(sums, [2]metrics.Summary{donor.Summary("A"), donor.Summary("B")})
	}
	u.res = donor
	return sums, nil
}

// spans regenerates Figure 16 and the critical-path extension, which keep
// every span and read them all back. Its unit is one ServiceFridge cell at
// an 80% budget with spans kept, plus the critical-path blame walk.
type spans struct {
	seed        uint64
	fig16, crit experiments.Experiment
	maxReq      power.Watts
}

func (w *spans) setUp() error {
	experiments.SetWarmStart(false)
	w.maxReq = engine.CalibrateMaxRequired(calibrationConfig(w.seed))
	return nil
}

func (w *spans) op(c *checker, _ extras) error {
	for _, e := range []experiments.Experiment{w.fig16, w.crit} {
		c.check(e.ID, renderSection(e.ID, e.Title, e.Run(w.seed)))
	}
	return nil
}

func (w *spans) unit(u *unitRun) error {
	res, err := build(u, studyCell(w.seed, w.maxReq, 0.8, true, u.prof))
	if err != nil {
		return err
	}
	u.begin("engine.run")
	u.finish(res)
	u.end()
	var out bytes.Buffer
	fmt.Fprintf(&out, "A %+v B %+v\n", res.Summary("A"), res.Summary("B"))
	u.begin("trace.critpath")
	acc := res.CritPathBlame()
	u.end()
	for _, region := range acc.Regions() {
		rb := acc.Region(region)
		fmt.Fprintf(&out, "blame %s: requests=%d response=%v dispatch=%v\n",
			region, rb.Requests, rb.Response, rb.Dispatch)
		for _, svc := range rb.Services() {
			fmt.Fprintf(&out, "  %s %v\n", svc, rb.Service(svc).Total())
		}
	}
	u.digest, u.res = out.Bytes(), res
	return nil
}

// loadScenario reads a committed scenario and binds it to the seed.
func loadScenario(root, name string, seed uint64) (experiments.Scenario, error) {
	f, err := os.Open(filepath.Join(root, "bench", "workloads", name))
	if err != nil {
		return experiments.Scenario{}, err
	}
	defer f.Close()
	sc, err := experiments.DecodeScenario(f)
	if err != nil {
		return sc, err
	}
	sc.Seed = seed
	return sc.Normalize()
}

// sessionConfig builds the engine configuration of a scenario with the
// instrumentation a control-plane session attaches: telemetry, an event
// recorder and a run ledger.
func sessionConfig(sc experiments.Scenario, p *prof.Profiler) (engine.Config, error) {
	cfg, err := sc.Config()
	if err != nil {
		return cfg, err
	}
	cfg.Telemetry = sc.NewTelemetry()
	cfg.Events = obs.NewRecorder(0)
	cfg.Ledger = obs.NewLedger()
	cfg.Prof = p
	return cfg, nil
}

// reportWithLedger is a session's canonical output: the standard run
// report (per-region summaries, power, zones, SLO) and the ledger chain.
func reportWithLedger(out *bytes.Buffer, res *engine.Result, sc experiments.Scenario) {
	cliutil.RunReport(out, res, res.Config.Telemetry, sc.SLOTarget())
	fmt.Fprintf(out, "ledger %d %016x\n", res.Config.Ledger.Len(), res.Config.Ledger.Chain())
}

// socialnet runs the committed long-horizon control-plane scenario. Its op
// and its unit are the same single run, so the timed op is the untraced
// unit.
type socialnet struct {
	root string
	seed uint64
	sc   experiments.Scenario
}

func (w *socialnet) setUp() error {
	sc, err := loadScenario(w.root, "socialnet-ctl.json", w.seed)
	if err != nil {
		return err
	}
	cfg, err := sessionConfig(sc, nil)
	if err != nil {
		return err
	}
	if _, err := engine.BuildE(cfg); err != nil {
		return err
	}
	w.sc = sc
	return nil
}

func (w *socialnet) op(c *checker, x extras) error {
	u := newUnitRun(false, 0, "")
	start := time.Now()
	if err := w.unit(u); err != nil {
		return err
	}
	x.add("sim_req_per_s", float64(u.acc.requests)/time.Since(start).Seconds())
	c.check("socialnet-ctl", u.digest)
	return nil
}

func (w *socialnet) unit(u *unitRun) error {
	cfg, err := sessionConfig(w.sc, u.prof)
	if err != nil {
		return err
	}
	res, err := build(u, cfg)
	if err != nil {
		return err
	}
	u.begin("engine.run")
	u.finish(res)
	u.end()
	var out bytes.Buffer
	reportWithLedger(&out, res, w.sc)
	u.digest, u.res = out.Bytes(), res
	return nil
}
