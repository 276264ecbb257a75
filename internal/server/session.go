package server

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"servicefridge/internal/cliutil"
	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/obs"
	"servicefridge/internal/prof"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
)

// sessionCmd is a command executed on the session goroutine, which owns
// the engine exclusively. exec runs with the warm engine; fail answers
// the command when no engine is (or will be) available.
type sessionCmd interface {
	exec(s *session, res *engine.Result)
	fail(status int, msg string)
}

// State is a session's lifecycle state.
type State string

const (
	// StateQueued: created, waiting for a concurrency slot.
	StateQueued State = "queued"
	// StateRunning: the engine is advancing on the session goroutine.
	StateRunning State = "running"
	// StateDone: the run completed; the result document is final and the
	// engine stays warm for what-if queries until the session is deleted
	// or evicted.
	StateDone State = "done"
	// StateCancelled: the run was stopped early. The engine (if it ever
	// started) stays warm for what-if queries — forks restore bookmarks
	// of the unperturbed run, so they do not depend on how far the run
	// got.
	StateCancelled State = "cancelled"
	// StateFailed: the engine could not be built.
	StateFailed State = "failed"
)

// advanceChunk is how much simulation time the session goroutine runs
// between lifecycle checks: cancellation and queued what-if commands are
// observed at these boundaries, never mid-event.
const advanceChunk = sim.Time(time.Second)

// session is one simulation run owned by the control plane. All engine
// access happens on the session's own goroutine (run); HTTP handlers
// communicate through published telemetry snapshots, atomics, and the
// cmds channel — never by touching the engine.
type session struct {
	id       string
	seq      int // creation order, for stable listings
	scenario experiments.Scenario
	tel      *telemetry.Telemetry
	// profiler is the session's always-on phase profiler (detached, so it
	// works regardless of the process-wide -profile switch). It is
	// registered for the lifetime of the session, which folds its phase
	// seconds into the /metrics fridge_phase_seconds_total family, and
	// backs GET /sessions/{id}/profile. Its accumulators are atomics, so
	// handlers read it live without touching the engine.
	profiler *prof.Profiler
	srv      *Server

	simNow   atomic.Int64 // engine clock (ns), updated at chunk boundaries
	simTotal atomic.Int64

	// bm holds the what-if bookmarks; only the session goroutine touches
	// it.
	bm bookmarks

	mu       sync.Mutex
	state    State
	errMsg   string
	result   []byte // final /result document, built once at completion
	lastUsed int64  // server's logical clock, for LRU eviction

	cancel     chan struct{} // closed by cancel: stop advancing
	cancelOnce sync.Once
	gone       chan struct{} // closed by delete/evict: goroutine exits
	goneOnce   sync.Once
	exited     chan struct{} // closed when run returns: the engine is released
	cmds       chan sessionCmd
}

func newSession(id string, seq int, sc experiments.Scenario, srv *Server) *session {
	s := &session{
		id:       id,
		seq:      seq,
		scenario: sc,
		tel:      sc.NewTelemetry(),
		profiler: prof.NewDetached("session:" + id),
		srv:      srv,
		state:    StateQueued,
		cancel:   make(chan struct{}),
		gone:     make(chan struct{}),
		exited:   make(chan struct{}),
		cmds:     make(chan sessionCmd),
	}
	prof.Register(s.profiler)
	s.tel.EnablePublishing()
	s.simTotal.Store(int64(sc.Warmup() + sc.Duration()))
	return s
}

func (s *session) getState() (State, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.errMsg
}

func (s *session) setState(st State, errMsg string) {
	s.mu.Lock()
	s.state = st
	s.errMsg = errMsg
	s.mu.Unlock()
}

func (s *session) requestCancel() { s.cancelOnce.Do(func() { close(s.cancel) }) }

// markGone frees the session: the goroutine exits and the profiler
// leaves the registry, so evicted sessions stop contributing to the
// /metrics phase totals.
func (s *session) markGone() {
	s.goneOnce.Do(func() {
		close(s.gone)
		prof.Unregister(s.profiler)
	})
}

// run is the session goroutine: acquire a concurrency slot, build the
// engine, advance it to completion in chunks (draining what-if commands
// and watching for cancellation between chunks), build the result
// document, then keep serving what-if commands until deleted.
func (s *session) run(sem chan struct{}) {
	defer close(s.exited)
queued:
	for {
		select {
		case sem <- struct{}{}:
			break queued
		case cmd := <-s.cmds:
			cmd.fail(statusConflict, "session is queued and has no engine yet")
		case <-s.cancel:
			s.setState(StateCancelled, "")
			s.srv.sessionTerminal(s)
			s.drainUnstarted()
			return
		case <-s.gone:
			return
		}
	}

	// The session goroutine owns the engine exclusively, so labelling it
	// attributes CPU samples (/debug/pprof/profile on the serving mux)
	// to this session; what-if forks run on this same goroutine and
	// inherit the label.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("session", s.id)))

	s.setState(StateRunning, "")
	cfg, err := sessionConfig(s.scenario, s.tel)
	var res *engine.Result
	if err == nil {
		// The phase profiler is passive like the instrumentation
		// sessionConfig attaches, and backs GET /profile.
		cfg.Prof = s.profiler
		res, err = engine.BuildE(cfg)
	}
	if err != nil {
		<-sem
		s.setState(StateFailed, err.Error())
		s.srv.sessionTerminal(s)
		s.drainUnstarted()
		return
	}
	s.bm.base = res.Snapshot() // t=0 bookmark, the root of every fork
	total := res.Total()
	s.simTotal.Store(int64(total))

	cancelled := false
advance:
	for now := res.Engine.Now(); now < total; {
		next := now + advanceChunk
		if next > total {
			next = total
		}
		res.Engine.RunUntil(next)
		now = next
		s.simNow.Store(int64(now))
	drain:
		for {
			select {
			case cmd := <-s.cmds:
				cmd.exec(s, res)
			case <-s.cancel:
				cancelled = true
				break advance
			case <-s.gone:
				<-sem
				return
			default:
				break drain
			}
		}
	}

	if cancelled {
		s.setState(StateCancelled, "")
	} else {
		res.Finish()
		s.simNow.Store(int64(res.Engine.Now()))
		doc := buildResultDoc(s.scenario, res, s.tel)
		s.mu.Lock()
		s.result = doc
		s.state = StateDone
		s.mu.Unlock()
	}
	<-sem
	s.srv.sessionTerminal(s)

	// Terminal sessions keep their warm engine: what-if queries fork
	// from bookmarks of the unperturbed run, so they work identically on
	// done and cancelled sessions until the session is deleted or
	// evicted.
	for {
		select {
		case cmd := <-s.cmds:
			cmd.exec(s, res)
		case <-s.gone:
			return
		}
	}
}

// sessionConfig is the run a session executes: the scenario's config with
// the session's telemetry, an events recorder and a run ledger attached.
// Both are passive (the run is byte-identical with or without them), and
// they back GET /ledger and /explain. A done session's ledger is
// byte-identical to cmd/fridge -ledger at the same scenario.
func sessionConfig(sc experiments.Scenario, tel *telemetry.Telemetry) (engine.Config, error) {
	cfg, err := sc.Config()
	if err != nil {
		return cfg, err
	}
	cfg.Telemetry = tel
	cfg.Events = obs.NewRecorder(0)
	cfg.Ledger = obs.NewLedger()
	return cfg, nil
}

// drainUnstarted answers what-if commands on a session whose engine never
// existed (cancelled or failed before the build).
func (s *session) drainUnstarted() {
	for {
		select {
		case cmd := <-s.cmds:
			cmd.fail(statusConflict, "session has no engine (never started)")
		case <-s.gone:
			return
		}
	}
}

// resultDoc is the /result document. Everything in it derives from the
// scenario alone — no session IDs, timestamps or run-progress state — so
// identical scenario POSTs produce byte-identical bodies.
type resultDoc struct {
	Scenario experiments.Scenario `json:"scenario"`
	Regions  []regionDoc          `json:"regions"`
	Power    powerDoc             `json:"power"`
	Budget   budgetDoc            `json:"budget"`
	Orch     orchDoc              `json:"orchestrator"`
	SLO      []sloDoc             `json:"slo"`
	Report   string               `json:"report"`
}

type regionDoc struct {
	Region string  `json:"region"` // "all" for the aggregate
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

type powerDoc struct {
	CapW         float64 `json:"cap_w"`
	MeanDynamicW float64 `json:"mean_dynamic_w"`
	PeakDynamicW float64 `json:"peak_dynamic_w"`
	RangeW       float64 `json:"range_w"`
}

type budgetDoc struct {
	ViolatedSamples int `json:"violated_samples"`
	TotalSamples    int `json:"total_samples"`
}

type orchDoc struct {
	Migrations      uint64 `json:"migrations"`
	ContainerStarts uint64 `json:"container_starts"`
}

type sloDoc struct {
	Series            string  `json:"series"`
	EvalTicks         int     `json:"eval_ticks"`
	ViolationTicks    int     `json:"violation_ticks"`
	ViolationFraction float64 `json:"violation_fraction"`
	FirstViolationS   float64 `json:"first_violation_s"` // -1 when never tripped
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sloDocs(tel *telemetry.Telemetry) []sloDoc {
	var out []sloDoc
	for _, r := range tel.SLOReport() {
		d := sloDoc{
			Series:          r.Series,
			EvalTicks:       r.EvalTicks,
			ViolationTicks:  r.ViolationTicks,
			FirstViolationS: -1,
		}
		if r.EvalTicks > 0 {
			d.ViolationFraction = float64(r.ViolationTicks) / float64(r.EvalTicks)
		}
		if r.FirstViolation >= 0 {
			d.FirstViolationS = r.FirstViolation.Seconds()
		}
		out = append(out, d)
	}
	return out
}

func buildResultDoc(sc experiments.Scenario, res *engine.Result, tel *telemetry.Telemetry) []byte {
	doc := resultDoc{Scenario: sc}
	all := res.Summary("")
	doc.Regions = append(doc.Regions, regionDoc{
		Region: "all", Count: all.Count,
		MeanMs: ms(all.Mean), P90Ms: ms(all.P90), P95Ms: ms(all.P95), P99Ms: ms(all.P99),
	})
	for _, region := range res.Config.Spec.RegionNames() {
		s := res.Summary(region)
		doc.Regions = append(doc.Regions, regionDoc{
			Region: region, Count: s.Count,
			MeanMs: ms(s.Mean), P90Ms: ms(s.P90), P95Ms: ms(s.P95), P99Ms: ms(s.P99),
		})
	}
	doc.Power = powerDoc{
		CapW:         float64(res.Budget.Cap()),
		MeanDynamicW: float64(res.Meter.MeanDynamic()),
		PeakDynamicW: float64(res.Meter.PeakDynamic()),
		RangeW:       float64(res.Meter.DynamicRange()),
	}
	doc.Budget.ViolatedSamples, doc.Budget.TotalSamples = res.BudgetViolations()
	doc.Orch = orchDoc{Migrations: res.Orch.Migrations(), ContainerStarts: res.Orch.Started()}
	doc.SLO = sloDocs(tel)

	var report bytes.Buffer
	cliutil.RunReport(&report, res, tel, sc.SLOTarget())
	doc.Report = report.String()

	body, err := json.Marshal(doc)
	if err != nil { // unreachable: the doc is plain data
		body = []byte(`{"error":"result marshal failed"}`)
	}
	return append(body, '\n')
}
