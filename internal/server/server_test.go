package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/obs"
)

// shortScenario finishes in a few dozen milliseconds of wall clock.
const shortScenario = `{"scheme":"ServiceFridge","budget":0.8,"workers":20,"warmup_s":1,"duration_s":3,"seed":3}`

func newTestServer(t *testing.T, opt Options) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	New(opt).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func doReq(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp.StatusCode, b
}

func createSession(t *testing.T, ts *httptest.Server, scenario string) string {
	t.Helper()
	code, body := doReq(t, "POST", ts.URL+"/sessions", scenario)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
		t.Fatalf("create: bad body %s (%v)", body, err)
	}
	return doc.ID
}

func sessionState(t *testing.T, ts *httptest.Server, id string) (State, statusEntry) {
	t.Helper()
	code, body := doReq(t, "GET", ts.URL+"/sessions/"+id+"/status", "")
	if code != http.StatusOK {
		t.Fatalf("status %s: %d: %s", id, code, body)
	}
	var e statusEntry
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("status %s: %v in %s", id, err, body)
	}
	return e.State, e
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, e := sessionState(t, ts, id)
		if st == want {
			return
		}
		if st == StateFailed {
			t.Fatalf("session %s failed: %s", id, e.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %s", id, want)
}

func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := createSession(t, ts, shortScenario)
	waitState(t, ts, id, StateDone)

	_, e := sessionState(t, ts, id)
	if e.SimSeconds != 4 || e.TotalSeconds != 4 {
		t.Fatalf("done session reports sim %v / total %v, want 4 / 4", e.SimSeconds, e.TotalSeconds)
	}

	code, r1 := doReq(t, "GET", ts.URL+"/sessions/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, r1)
	}
	_, r2 := doReq(t, "GET", ts.URL+"/sessions/"+id+"/result", "")
	if !bytes.Equal(r1, r2) {
		t.Fatal("two reads of the same result differ")
	}
	var doc resultDoc
	if err := json.Unmarshal(r1, &doc); err != nil {
		t.Fatalf("result unmarshal: %v", err)
	}
	if doc.Regions[0].Region != "all" || doc.Regions[0].Count == 0 {
		t.Fatalf("result has no aggregate responses: %+v", doc.Regions)
	}
	if !strings.Contains(doc.Report, "scheme=ServiceFridge budget=80%") {
		t.Fatalf("report header missing: %q", doc.Report)
	}

	code, body := doReq(t, "GET", ts.URL+"/sessions", "")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"id":"`+id+`"`)) {
		t.Fatalf("list: %d: %s", code, body)
	}

	if code, _ := doReq(t, "DELETE", ts.URL+"/sessions/"+id, ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/sessions/"+id+"/status", ""); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", code)
	}
}

// TestConcurrentClientsByteIdentical is the acceptance test: two clients
// concurrently create sessions from the same scenario and issue the same
// what-if; every pair of bodies must be byte-identical.
func TestConcurrentClientsByteIdentical(t *testing.T) {
	ts := newTestServer(t, Options{MaxConcurrent: 2})
	const whatif = `{"at_s":1.5,"budget":0.75}`

	type out struct {
		result, whatif []byte
	}
	results := make([]out, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := createSession(t, ts, shortScenario)
			waitState(t, ts, id, StateDone)
			_, results[i].result = doReq(t, "GET", ts.URL+"/sessions/"+id+"/result", "")
			code, body := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", whatif)
			if code != http.StatusOK {
				t.Errorf("whatif: %d: %s", code, body)
			}
			results[i].whatif = body
		}(i)
	}
	wg.Wait()
	if !bytes.Equal(results[0].result, results[1].result) {
		t.Error("concurrent clients got different result bodies for the same scenario")
	}
	if !bytes.Equal(results[0].whatif, results[1].whatif) {
		t.Error("concurrent clients got different what-if bodies for the same query")
	}
}

func TestWhatIfDeterministicAndEffective(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := createSession(t, ts, shortScenario)
	waitState(t, ts, id, StateDone)

	const query = `{"at_s":1.5,"budget":0.75,"max_freq_ghz":1.6,"load_factor":1.5}`
	code, b1 := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", query)
	if code != http.StatusOK {
		t.Fatalf("whatif: %d: %s", code, b1)
	}
	_, b2 := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", query)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("identical what-if queries returned different bodies:\n%s\n%s", b1, b2)
	}
	var doc whatIfDoc
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("whatif unmarshal: %v", err)
	}
	if doc.Baseline == doc.Perturbed {
		t.Fatal("perturbations had no effect on the branch stats")
	}

	// The detour must be invisible: the session's result is still
	// byte-identical to a fresh session that never ran a what-if. /result
	// is built once at completion, so the engine itself is checked through
	// /ledger, which the session serves from its live run.
	_, after := doReq(t, "GET", ts.URL+"/sessions/"+id+"/result", "")
	fresh := createSession(t, ts, shortScenario)
	waitState(t, ts, fresh, StateDone)
	_, want := doReq(t, "GET", ts.URL+"/sessions/"+fresh+"/result", "")
	if !bytes.Equal(after, want) {
		t.Fatal("result changed after a what-if detour")
	}
	assertSameLedger(t, ts, id, fresh)
}

// assertSameLedger requires two sessions to serve byte-identical run
// ledgers.
func assertSameLedger(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	_, got := doReq(t, "GET", ts.URL+"/sessions/"+id+"/ledger", "")
	_, ref := doReq(t, "GET", ts.URL+"/sessions/"+want+"/ledger", "")
	if len(ref) == 0 || !bytes.Equal(got, ref) {
		t.Fatalf("session %s ledger differs from session %s's after what-if detours", id, want)
	}
}

// TestWhatIfWhileRunning issues a what-if against a session that is still
// advancing; the answer must equal the one the finished session gives.
func TestWhatIfWhileRunning(t *testing.T) {
	ts := newTestServer(t, Options{})
	long := `{"workers":20,"warmup_s":1,"duration_s":120,"seed":3}`
	id := createSession(t, ts, long)

	const query = `{"at_s":2,"budget":0.8}`
	code, during := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", query)
	if code == http.StatusConflict {
		t.Skip("session finished its queue wait too quickly to catch mid-run")
	}
	if code != http.StatusOK {
		t.Fatalf("whatif while running: %d: %s", code, during)
	}
	waitState(t, ts, id, StateDone)
	_, after := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", query)
	if !bytes.Equal(during, after) {
		t.Fatal("what-if answered differently while running vs after completion")
	}

	// The session kept advancing from the bookmark its detour restored:
	// its final result and ledger must equal a session that never forked.
	fresh := createSession(t, ts, long)
	waitState(t, ts, fresh, StateDone)
	_, got := doReq(t, "GET", ts.URL+"/sessions/"+id+"/result", "")
	_, want := doReq(t, "GET", ts.URL+"/sessions/"+fresh+"/result", "")
	if !bytes.Equal(got, want) {
		t.Fatal("a what-if while running changed the session's final result")
	}
	assertSameLedger(t, ts, id, fresh)
}

// TestRunStateSize bounds what one bookmark of a what-if session holds at
// t=60 s (the 50-worker, 5 + 55 s ServiceFridge session): a session caches
// several, so each must stay small. The telemetry windows are saved by
// their occupied buckets, and the per-run stores by their used length.
func TestRunStateSize(t *testing.T) {
	sc, err := experiments.LoadScenario(strings.NewReader(
		`{"scheme":"ServiceFridge","budget":0.8,"workers":50,"warmup_s":5,"duration_s":55,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sessionConfig(sc, sc.NewTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Build(cfg)
	res.Finish()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := res.Snapshot()
	runtime.ReadMemStats(&after)
	if size := after.TotalAlloc - before.TotalAlloc; size > 500_000 {
		t.Fatalf("a what-if session's RunState at t=%v holds %d bytes, want <= 500000", snap.Now(), size)
	}
}

func TestStreamEmitsJSONL(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := createSession(t, ts, shortScenario)
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("stream content type %q", ct)
	}
	lines := 0
	var lastSim float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var doc struct {
			SimSeconds float64 `json:"sim_seconds"`
			Latency    []any   `json:"latency"`
		}
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("stream line %d is not JSON: %v: %s", lines, err, sc.Text())
		}
		if doc.SimSeconds < lastSim {
			t.Fatalf("stream went backwards: %v after %v", doc.SimSeconds, lastSim)
		}
		lastSim = doc.SimSeconds
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if lines < 2 {
		t.Fatalf("stream produced %d lines, want at least 2", lines)
	}
}

func TestQueueCancelAndErrors(t *testing.T) {
	ts := newTestServer(t, Options{MaxConcurrent: 1})
	longA := `{"workers":20,"warmup_s":1,"duration_s":240,"seed":3}`
	a := createSession(t, ts, longA)
	b := createSession(t, ts, shortScenario)

	// B waits behind A; its result is not available and a what-if has no
	// engine to fork.
	if st, _ := sessionState(t, ts, b); st == StateQueued {
		if code, _ := doReq(t, "GET", ts.URL+"/sessions/"+b+"/result", ""); code != http.StatusConflict {
			t.Errorf("result while queued: %d, want 409", code)
		}
		code, _ := doReq(t, "POST", ts.URL+"/sessions/"+b+"/whatif", `{"at_s":1,"budget":0.8}`)
		if code != http.StatusConflict {
			t.Errorf("whatif while queued: %d, want 409", code)
		}
	}

	if code, _ := doReq(t, "POST", ts.URL+"/sessions/"+b+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel: not OK")
	}
	waitState(t, ts, b, StateCancelled)
	if code, _ := doReq(t, "GET", ts.URL+"/sessions/"+b+"/result", ""); code != http.StatusConflict {
		t.Errorf("result after cancel: %d, want 409", code)
	}

	if code, _ := doReq(t, "DELETE", ts.URL+"/sessions/"+a, ""); code != http.StatusNoContent {
		t.Fatalf("delete running session failed")
	}
	if code, _ := doReq(t, "GET", ts.URL+"/sessions/"+a, ""); code != http.StatusNotFound {
		t.Errorf("deleted session still listed")
	}

	// Error surface. A scenario the session could not build, or would
	// run wrongly, is a 400 at POST — not a 201 followed by a failed
	// session or a skewed run.
	for _, tc := range []struct{ body, want string }{
		{`{"scheme":"NoSuch"}`, `unknown scheme \"NoSuch\"`},
		{`{"workload":{"trace":"t_s,region,rate\n0,Z,1"}}`, `trace region \"Z\" is not in the application`},
		{`{"mix":{"A":1e308,"B":1e308}}`, "mix weights sum to +Inf"},
		{`{"warmup_s":1e-12,"duration_s":2}`, "warmup_s 1e-12 is shorter than a nanosecond"},
		{`{"duration_s":1e-12}`, "duration_s 1e-12 is shorter than a nanosecond"},
		{`{"tick_ms":1e-7}`, "tick_ms 1e-07 is shorter than a nanosecond"},
		{`{"telemetry":{"interval_ms":1e-7}}`, "telemetry.interval_ms 1e-07 is shorter than a nanosecond"},
		{`{"telemetry":{"slo_target_ms":1e-7}}`, "telemetry.slo_target_ms 1e-07 is shorter than a nanosecond"},
	} {
		if code, body := doReq(t, "POST", ts.URL+"/sessions", tc.body); code != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("POST %s: %d %s, want 400 naming %s", tc.body, code, body, tc.want)
		}
	}
	if code, _ := doReq(t, "GET", ts.URL+"/sessions/nope/status", ""); code != http.StatusNotFound {
		t.Errorf("unknown session status: %d", code)
	}
	id := createSession(t, ts, shortScenario)
	waitState(t, ts, id, StateDone)
	if code, _ := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", `{"at_s":1}`); code != http.StatusBadRequest {
		t.Errorf("perturbation-free whatif accepted: %d", code)
	}
	// Fork times past the run's end, including those whose nanoseconds
	// overflow a sim.Time, are the client's error.
	for _, body := range []string{`{"at_s":999,"budget":0.8}`, `{"at_s":1e10,"budget":0.8}`, `{"at_s":1e300,"budget":0.8}`} {
		if code, reply := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", body); code != http.StatusUnprocessableEntity || !strings.Contains(string(reply), "exceeds the run's end") {
			t.Errorf("out-of-range fork time %s: %d %s, want 422", body, code, reply)
		}
	}
}

func TestLRUEvictsOldestFinished(t *testing.T) {
	ts := newTestServer(t, Options{MaxFinished: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		id := createSession(t, ts, fmt.Sprintf(`{"workers":20,"warmup_s":1,"duration_s":3,"seed":%d}`, i+1))
		waitState(t, ts, id, StateDone)
		ids = append(ids, id)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/sessions/"+ids[0]+"/status", ""); code != http.StatusNotFound {
		t.Errorf("oldest finished session survived eviction: %d", code)
	}
	for _, id := range ids[1:] {
		if code, _ := doReq(t, "GET", ts.URL+"/sessions/"+id+"/status", ""); code != http.StatusOK {
			t.Errorf("recent session %s evicted: %d", id, code)
		}
	}
}

// blockCmd holds the session goroutine inside a command until released.
type blockCmd struct{ started, release chan struct{} }

func (c *blockCmd) exec(*session, *engine.Result) {
	close(c.started)
	<-c.release
}

func (c *blockCmd) fail(int, string) { close(c.started) }

// TestDeleteWaitsForSessionExit: DELETE replies only once the session
// goroutine has returned and dropped its engine, even when the goroutine
// is busy with a command when the delete arrives.
func TestDeleteWaitsForSessionExit(t *testing.T) {
	srv := New(Options{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, busy := range []bool{false, true} {
		id := createSession(t, ts, shortScenario)
		waitState(t, ts, id, StateDone)
		srv.mu.Lock()
		sess := srv.sessions[id]
		srv.mu.Unlock()

		cmd := &blockCmd{started: make(chan struct{}), release: make(chan struct{})}
		if busy {
			sess.cmds <- cmd
			<-cmd.started
		}
		deleted := make(chan int, 1)
		go func() {
			req, _ := http.NewRequest("DELETE", ts.URL+"/sessions/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				deleted <- 0
				return
			}
			resp.Body.Close()
			deleted <- resp.StatusCode
		}()
		if busy {
			select {
			case code := <-deleted:
				t.Fatalf("DELETE replied %d while the session goroutine was busy", code)
			case <-time.After(50 * time.Millisecond):
			}
			close(cmd.release)
		}
		if code := <-deleted; code != http.StatusNoContent {
			t.Fatalf("delete (busy=%v): %d", busy, code)
		}
		select {
		case <-sess.exited:
		default:
			t.Fatalf("DELETE (busy=%v) replied before the session goroutine returned", busy)
		}
	}
}

// TestWhatIfWorkloadPerturbations covers the traffic-side what-if surface:
// scaling the live profile, swapping it for another registered shape, and
// the validation around both.
func TestWhatIfWorkloadPerturbations(t *testing.T) {
	ts := newTestServer(t, Options{})
	const wlScenario = `{"scheme":"ServiceFridge","budget":0.8,"warmup_s":1,"duration_s":3,"seed":3,` +
		`"workload":{"profile":"diurnal","rate":25}}`
	id := createSession(t, ts, wlScenario)
	waitState(t, ts, id, StateDone)

	for _, query := range []string{
		`{"at_s":1.5,"rate_factor":2}`,
		`{"at_s":1.5,"profile":"flash-crowd"}`,
		`{"at_s":1.5,"profile":"burst","rate":40}`,
	} {
		code, b1 := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", query)
		if code != http.StatusOK {
			t.Fatalf("whatif %s: %d: %s", query, code, b1)
		}
		_, b2 := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", query)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("whatif %s: identical queries returned different bodies", query)
		}
		var doc whatIfDoc
		if err := json.Unmarshal(b1, &doc); err != nil {
			t.Fatalf("whatif %s: unmarshal: %v", query, err)
		}
		if doc.Baseline == doc.Perturbed {
			t.Fatalf("whatif %s: perturbation had no effect", query)
		}
	}

	// The detour must stay invisible.
	_, after := doReq(t, "GET", ts.URL+"/sessions/"+id+"/result", "")
	fresh := createSession(t, ts, wlScenario)
	waitState(t, ts, fresh, StateDone)
	_, want := doReq(t, "GET", ts.URL+"/sessions/"+fresh+"/result", "")
	if !bytes.Equal(after, want) {
		t.Fatal("result changed after workload what-ifs")
	}

	// Validation: bad bodies are 400s, a traffic perturbation against a
	// session with no workload section is a 422.
	for _, bad := range []string{
		`{"at_s":1,"rate_factor":-1}`,
		`{"at_s":1,"profile":"no-such-shape"}`,
		`{"at_s":1,"rate":40}`,
	} {
		if code, _ := doReq(t, "POST", ts.URL+"/sessions/"+id+"/whatif", bad); code != http.StatusBadRequest {
			t.Errorf("whatif %s: %d, want 400", bad, code)
		}
	}
	steady := createSession(t, ts, shortScenario)
	waitState(t, ts, steady, StateDone)
	code, body := doReq(t, "POST", ts.URL+"/sessions/"+steady+"/whatif", `{"at_s":1,"rate_factor":2}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("rate_factor without a workload: %d (%s), want 422", code, body)
	}
}

// TestLedgerEndpointMatchesCLI: a done session's /ledger body is
// byte-identical to a direct engine run of the same scenario with a
// ledger attached — the CLI-vs-control-plane parity guarantee. The
// session carries full telemetry and advances in chunks with a t=0
// snapshot taken; none of that may leak into the ledger.
func TestLedgerEndpointMatchesCLI(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := createSession(t, ts, shortScenario)
	waitState(t, ts, id, StateDone)

	code, body := doReq(t, "GET", ts.URL+"/sessions/"+id+"/ledger", "")
	if code != http.StatusOK {
		t.Fatalf("ledger: status %d: %s", code, body)
	}
	if len(body) == 0 {
		t.Fatal("ledger body empty")
	}

	sc, err := experiments.LoadScenario(strings.NewReader(shortScenario))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ledger = obs.NewLedger()
	engine.Run(cfg)
	var want bytes.Buffer
	if err := cfg.Ledger.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if want.String() != string(body) {
		t.Fatalf("session ledger differs from direct run:\nsession:\n%s\ndirect:\n%s",
			body, want.String())
	}

	// Byte-determinism: a second fetch returns identical bytes.
	_, again := doReq(t, "GET", ts.URL+"/sessions/"+id+"/ledger", "")
	if !bytes.Equal(body, again) {
		t.Fatal("repeated /ledger fetches differ")
	}
}

// TestExplainEndpoint: every sealed tick expands to a well-formed,
// byte-deterministic explain document; at least one tick carries a
// cause-bearing decision record; bad tick indices are rejected.
func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := createSession(t, ts, shortScenario)
	waitState(t, ts, id, StateDone)

	_, ledger := doReq(t, "GET", ts.URL+"/sessions/"+id+"/ledger", "")
	ticks := bytes.Count(ledger, []byte("\n"))
	if ticks == 0 {
		t.Fatal("no sealed ticks")
	}

	causes := 0
	for i := 0; i < ticks; i++ {
		url := fmt.Sprintf("%s/sessions/%s/explain?t=%d", ts.URL, id, i)
		code, body := doReq(t, "GET", url, "")
		if code != http.StatusOK {
			t.Fatalf("explain t=%d: status %d: %s", i, code, body)
		}
		var doc struct {
			Tick   int               `json:"tick"`
			Chain  string            `json:"chain"`
			Causes []json.RawMessage `json:"causes"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("explain t=%d: %v in %s", i, err, body)
		}
		if doc.Tick != i || len(doc.Chain) != 16 {
			t.Fatalf("explain t=%d: bad doc %s", i, body)
		}
		causes += len(doc.Causes)
		if i == 0 {
			_, again := doReq(t, "GET", url, "")
			if !bytes.Equal(body, again) {
				t.Fatal("repeated /explain fetches differ")
			}
		}
	}
	if causes == 0 {
		t.Fatal("no cause-bearing events in any sealed tick")
	}

	if code, _ := doReq(t, "GET",
		fmt.Sprintf("%s/sessions/%s/explain?t=%d", ts.URL, id, ticks+5), ""); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range tick: status %d, want 422", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/sessions/"+id+"/explain?t=abc", ""); code != http.StatusBadRequest {
		t.Fatalf("non-integer tick: status %d, want 400", code)
	}
}

// TestBodyLimit: a POST body one byte over MaxBodyBytes is answered 413
// with the limit named, on both routes that take a body, and a valid
// scenario padded to exactly the limit is accepted.
func TestBodyLimit(t *testing.T) {
	ts := newTestServer(t, Options{})
	pad := func(doc string, n int) string { return doc + strings.Repeat(" ", n-len(doc)) }
	limit := fmt.Sprint(MaxBodyBytes)

	code, body := doReq(t, "POST", ts.URL+"/sessions", pad(shortScenario, MaxBodyBytes+1))
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), limit) {
		t.Fatalf("scenario one byte over the limit: %d %s, want 413 naming %s", code, body, limit)
	}
	code, body = doReq(t, "POST", ts.URL+"/sessions", pad(shortScenario, MaxBodyBytes))
	if code != http.StatusCreated {
		t.Fatalf("scenario padded to the limit: %d %s, want 201", code, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	code, body = doReq(t, "POST", ts.URL+"/sessions/"+doc.ID+"/whatif", pad(`{"at_s":1,"budget":0.8}`, MaxBodyBytes+1))
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), limit) {
		t.Fatalf("what-if one byte over the limit: %d %s, want 413 naming %s", code, body, limit)
	}
}
