package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/server"
	"servicefridge/internal/sim"
)

// whatif drives the control plane in process: server.New behind httptest,
// one closed-loop client on one keep-alive connection. One op is one
// session conversation: create the session, poll its status every
// millisecond until done, fetch the result, ask the what-ifs (alternating
// fork points, each retargeting the budget), and delete the session.
type whatif struct {
	root    string
	seed    uint64
	queries int // what-ifs per fork point and session

	sc     experiments.Scenario
	body   []byte // the scenario POSTed to /sessions
	srv    *httptest.Server
	client *http.Client
}

// whatifForks are the fork points: early forks replay little and branch
// long, late forks the reverse.
var whatifForks = [2]float64{6, 54}

const whatifBudget = 0.75

func (w *whatif) setUp() error {
	sc, err := loadScenario(w.root, "whatif-session.json", w.seed)
	if err != nil {
		return err
	}
	body, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	w.sc, w.body = sc, body
	w.close()
	mux := http.NewServeMux()
	server.New(server.Options{}).Register(mux)
	w.srv = httptest.NewServer(mux)
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	// Set-up ends when the server has completed a first session.
	id, err := w.startSession()
	if err != nil {
		return err
	}
	return w.deleteSession(id)
}

// close stops the server and drops the client's connection.
func (w *whatif) close() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.srv.Close()
	w.srv = nil
}

// do sends one request and reads the whole body, so the connection stays
// reusable.
func (w *whatif) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, w.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// startSession creates a session and polls it to completion. A session
// that does not finish is deleted, so it holds no memory in the server
// while later ops are measured, and reported as an error.
func (w *whatif) startSession() (string, error) {
	status, body, err := w.do("POST", "/sessions", w.body)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("POST /sessions: status %d: %s", status, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		return "", fmt.Errorf("POST /sessions: %w", err)
	}
	id := created.ID
	for {
		status, body, err := w.do("GET", "/sessions/"+id+"/status", nil)
		var st struct {
			State string `json:"state"`
		}
		switch {
		case err != nil:
		case status != http.StatusOK || json.Unmarshal(body, &st) != nil:
			err = fmt.Errorf("GET status: status %d: %s", status, body)
		case st.State == "done":
			return id, nil
		case st.State == "failed" || st.State == "cancelled":
			err = fmt.Errorf("session %s ended %s: %s", id, st.State, body)
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		return "", errors.Join(err, w.deleteSession(id))
	}
}

func (w *whatif) deleteSession(id string) error {
	status, body, err := w.do("DELETE", "/sessions/"+id, nil)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("DELETE session: status %d: %s", status, body)
	}
	return nil
}

func (w *whatif) op(c *checker, x extras) (err error) {
	start := time.Now()
	id, err := w.startSession()
	if err != nil {
		return err
	}
	x.add("session_s", time.Since(start).Seconds())
	defer func() { err = errors.Join(err, w.deleteSession(id)) }()
	status, body, err := w.do("GET", "/sessions/"+id+"/result", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		c.fail("GET result: status %d: %s", status, body)
	} else {
		c.check("whatif/result", body)
	}
	for i := 0; i < 2*w.queries; i++ {
		at := whatifForks[i%2]
		q := fmt.Sprintf(`{"at_s":%g,"budget":%g}`, at, whatifBudget)
		t := time.Now()
		status, body, err := w.do("POST", "/sessions/"+id+"/whatif", []byte(q))
		if err != nil {
			return err
		}
		ms := float64(time.Since(t)) / 1e6
		if status != http.StatusOK {
			c.fail("POST whatif at %g: status %d: %s", at, status, body)
			continue
		}
		c.check(fmt.Sprintf("whatif/at%g", at), body)
		x.add([2]string{"whatif_early_ms", "whatif_late_ms"}[i%2], ms)
	}
	return nil
}

// hold creates a finished session and keeps it until release, so the heap
// measurement sees the memory a done session holds.
func (w *whatif) hold() (release func() error, err error) {
	id, err := w.startSession()
	if err != nil {
		return nil, err
	}
	return func() error { return w.deleteSession(id) }, nil
}

// unit replays one session and its what-if sequence on the engine API,
// the calls the server makes: build with the session's instrumentation,
// snapshot the t=0 base, run to completion, then per what-if ForkAt,
// Finish, Restore with the perturbation, Finish, ReplayTo.
func (w *whatif) unit(u *unitRun) error {
	cfg, err := sessionConfig(w.sc, u.prof)
	if err != nil {
		return err
	}
	u.begin("engine.session")
	res, err := build(u, cfg)
	if err != nil {
		u.end()
		return err
	}
	var base *engine.RunState
	u.timed("engine.snapshot", func() { base = res.Snapshot() })
	baseCounts := countsOf(res)
	u.finish(res)
	var out bytes.Buffer
	reportWithLedger(&out, res, w.sc)
	u.end()

	branch := func() string {
		u.begin("engine.branch")
		u.finish(res)
		u.end()
		return fmt.Sprintf("%+v %+v", res.Summary(""), res.Config.Telemetry.SLOReport())
	}
	for i := 0; i < 2*w.queries; i++ {
		at := whatifForks[i%2]
		u.begin("whatif.query")
		paused := res.Engine.Now()
		var snap *engine.RunState
		if err := u.replay("engine.fork_replay", res, baseCounts, func() (err error) {
			snap, err = res.ForkAt(base, sim.Time(at*1e9))
			return err
		}); err != nil {
			return err
		}
		baseline := branch()
		u.timed("engine.restore", func() {
			res.Restore(snap)
			res.SetBudgetFraction(whatifBudget)
		})
		perturbed := branch()
		if err := u.replay("engine.resume_replay", res, baseCounts, func() error {
			return res.ReplayTo(base, paused)
		}); err != nil {
			return err
		}
		u.end()
		fmt.Fprintf(&out, "whatif at %g\nbaseline %s\nperturbed %s\n", at, baseline, perturbed)
	}
	fmt.Fprintf(&out, "final ledger %d %016x\n", res.Config.Ledger.Len(), res.Config.Ledger.Chain())
	u.digest, u.res = out.Bytes(), res
	return nil
}
