// Package server implements the simulation control plane mounted on
// cmd/fridge -listen: POST a scenario, get a session that runs it on its
// own engine, poll its status, stream its telemetry, fetch its result,
// and — the headline — ask what-if questions that fork the warm engine at
// a chosen sim time, apply a perturbation, and report the QoS delta
// against an unperturbed baseline.
//
// Everything is deterministic: response bodies for /result and /whatif
// derive from the scenario (and query) alone, so identical requests
// return byte-identical bodies, from any client, in any order.
//
//	POST   /sessions              create a session from a scenario spec
//	GET    /sessions              list sessions
//	GET    /sessions/{id}         = /sessions/{id}/status
//	GET    /sessions/{id}/status  lifecycle state + sim progress
//	GET    /sessions/{id}/stream  chunked JSONL of telemetry snapshots
//	GET    /sessions/{id}/result  final result document (409 until done)
//	GET    /sessions/{id}/ledger  hash-chained run ledger as JSONL
//	GET    /sessions/{id}/explain?t=N  expand sealed tick N: ledger entry + causes
//	GET    /sessions/{id}/profile phase-level wall-time profile (live)
//	POST   /sessions/{id}/whatif  fork, perturb, report the delta
//	POST   /sessions/{id}/cancel  stop advancing (engine stays warm)
//	DELETE /sessions/{id}         cancel, forget, free the engine (replies once freed)
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"servicefridge/internal/experiments"
	"servicefridge/internal/prof"
	"servicefridge/internal/telemetry"
)

const (
	statusOK            = http.StatusOK
	statusConflict      = http.StatusConflict
	statusUnprocessable = http.StatusUnprocessableEntity
	statusInternal      = http.StatusInternalServerError
)

// MaxBodyBytes bounds the body of POST /sessions and POST
// /sessions/{id}/whatif: a longer one is answered 413 before anything
// decodes it. A committed scenario is under 1 KB; the room is for a
// scenario's inline workload.trace, which for a day of per-second rows in
// two regions is about 2.7 MB.
const MaxBodyBytes = 8 << 20

// readBody reads the request body, answering 413 (or 400 when the read
// fails) and returning false when it cannot be read within MaxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the limit of %d bytes", MaxBodyBytes))
		return nil, false
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return body, true
}

func errorBody(msg string) []byte {
	body, _ := json.Marshal(map[string]string{"error": msg})
	return append(body, '\n')
}

// Options bounds the control plane's resource use.
type Options struct {
	// MaxConcurrent caps how many sessions advance simultaneously;
	// excess sessions queue. 0 means 2.
	MaxConcurrent int
	// MaxFinished caps how many terminal sessions (done, cancelled,
	// failed) are kept, each with a warm engine for what-if queries;
	// beyond it the least-recently-used terminal session is evicted.
	// 0 means 8.
	MaxFinished int
}

func (o Options) fill() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.MaxFinished <= 0 {
		o.MaxFinished = 8
	}
	return o
}

// Server is the control plane. Create with New, mount with Register.
type Server struct {
	opt Options
	sem chan struct{}

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	clock    int64 // logical time for LRU recency
}

// New returns a control plane with no sessions.
func New(opt Options) *Server {
	opt = opt.fill()
	return &Server{
		opt:      opt,
		sem:      make(chan struct{}, opt.MaxConcurrent),
		sessions: make(map[string]*session),
	}
}

// Register mounts the control-plane routes on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /sessions", s.handleCreate)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{id}", s.handleStatus)
	mux.HandleFunc("GET /sessions/{id}/status", s.handleStatus)
	mux.HandleFunc("GET /sessions/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /sessions/{id}/ledger", s.handleLedger)
	mux.HandleFunc("GET /sessions/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET /sessions/{id}/profile", s.handleProfile)
	mux.HandleFunc("POST /sessions/{id}/whatif", s.handleWhatif)
	mux.HandleFunc("POST /sessions/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
}

// lookup returns the session and bumps its LRU recency.
func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess != nil {
		s.clock++
		sess.mu.Lock()
		sess.lastUsed = s.clock
		sess.mu.Unlock()
	}
	return sess
}

// sessionTerminal is called by a session goroutine when it reaches a
// terminal state; it enforces the finished-session LRU bound.
func (s *Server) sessionTerminal(*session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var terminal []*session
	for _, sess := range s.sessions {
		if st, _ := sess.getState(); st == StateDone || st == StateCancelled || st == StateFailed {
			terminal = append(terminal, sess)
		}
	}
	if len(terminal) <= s.opt.MaxFinished {
		return
	}
	sort.Slice(terminal, func(i, j int) bool {
		a, b := terminal[i], terminal[j]
		a.mu.Lock()
		la := a.lastUsed
		a.mu.Unlock()
		b.mu.Lock()
		lb := b.lastUsed
		b.mu.Unlock()
		if la != lb {
			return la < lb
		}
		return a.seq < b.seq
	})
	for _, victim := range terminal[:len(terminal)-s.opt.MaxFinished] {
		delete(s.sessions, victim.id)
		victim.markGone()
	}
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody(msg))
}

// handleCreate accepts a scenario spec and starts a session for it.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	sc, err := experiments.LoadScenario(bytes.NewReader(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	s.nextID++
	s.clock++
	id := "s" + strconv.Itoa(s.nextID)
	sess := newSession(id, s.nextID, sc, s)
	sess.lastUsed = s.clock
	s.sessions[id] = sess
	s.mu.Unlock()
	go sess.run(s.sem)

	doc := struct {
		ID       string               `json:"id"`
		Scenario experiments.Scenario `json:"scenario"`
	}{ID: id, Scenario: sc}
	body, _ := json.Marshal(doc)
	writeJSON(w, http.StatusCreated, append(body, '\n'))
}

type statusEntry struct {
	ID           string  `json:"id"`
	State        State   `json:"state"`
	Scheme       string  `json:"scheme"`
	Seed         uint64  `json:"seed"`
	SimSeconds   float64 `json:"sim_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
	Error        string  `json:"error,omitempty"`
}

func entryFor(sess *session) statusEntry {
	st, errMsg := sess.getState()
	return statusEntry{
		ID:           sess.id,
		State:        st,
		Scheme:       sess.scenario.Scheme,
		Seed:         sess.scenario.Seed,
		SimSeconds:   float64(sess.simNow.Load()) / 1e9,
		TotalSeconds: float64(sess.simTotal.Load()) / 1e9,
		Error:        errMsg,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].seq < sessions[j].seq })
	doc := struct {
		Sessions []statusEntry `json:"sessions"`
	}{Sessions: []statusEntry{}}
	for _, sess := range sessions {
		doc.Sessions = append(doc.Sessions, entryFor(sess))
	}
	body, _ := json.Marshal(doc)
	writeJSON(w, http.StatusOK, append(body, '\n'))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	body, _ := json.Marshal(entryFor(sess))
	writeJSON(w, http.StatusOK, append(body, '\n'))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.mu.Lock()
	st, result := sess.state, sess.result
	sess.mu.Unlock()
	if st != StateDone {
		writeError(w, http.StatusConflict, "session is "+string(st)+", result not available")
		return
	}
	writeJSON(w, http.StatusOK, result)
}

// handleStream serves the session's telemetry as chunked JSONL: one line
// per published snapshot (the PR 5 snapshot-publication model — readers
// only ever load immutable published snapshots, so streaming cannot
// perturb the run), ending when the session reaches a terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var seq uint64
	emit := func() {
		snaps, next := sess.tel.PublishedSince(seq)
		seq = next
		for _, snap := range snaps {
			telemetry.WriteStatusTo(w, snap)
		}
		if len(snaps) > 0 && flusher != nil {
			flusher.Flush()
		}
	}
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		emit()
		st, _ := sess.getState()
		if st == StateDone || st == StateCancelled || st == StateFailed {
			emit() // final snapshot, if one landed after the last poll
			return
		}
		select {
		case <-ticker.C:
		case <-sess.gone:
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := parseWhatIf(bytes.NewReader(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cmd := &whatifCmd{req: req, reply: make(chan cmdReply, 1)}
	dispatch(w, r, sess, cmd, cmd.reply, "")
}

// dispatch queues cmd on the session goroutine and writes its reply.
// okContentType, when non-empty, overrides the Content-Type of a
// successful reply (error replies are always JSON).
func dispatch(w http.ResponseWriter, r *http.Request, sess *session, cmd sessionCmd, reply chan cmdReply, okContentType string) {
	select {
	case sess.cmds <- cmd:
	case <-sess.gone:
		writeError(w, http.StatusGone, "session deleted")
		return
	case <-r.Context().Done():
		return
	}
	select {
	case rep := <-reply:
		ct := "application/json"
		if rep.status == statusOK && okContentType != "" {
			ct = okContentType
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(rep.status)
		w.Write(rep.body)
	case <-sess.gone:
		writeError(w, http.StatusGone, "session deleted")
	}
}

// handleLedger serves the session's run ledger as JSONL: one line per
// sealed control tick, chained hashes over the tick's events, the engine
// state digest and the RNG cursor. Once the session is done the body is
// byte-identical to `cmd/fridge -ledger` at the same scenario; mid-run it
// is the prefix sealed so far.
func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	cmd := &ledgerCmd{reply: make(chan cmdReply, 1)}
	dispatch(w, r, sess, cmd, cmd.reply, "application/jsonl")
}

// handleExplain expands one sealed ledger tick (?t=N, the tick index as
// reported by cmd/simdiff) into its ledger entry plus the cause-bearing
// events recorded in that tick's window.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	tick, err := strconv.Atoi(r.URL.Query().Get("t"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "explain needs an integer tick index: ?t=N")
		return
	}
	cmd := &explainCmd{tick: tick, reply: make(chan cmdReply, 1)}
	dispatch(w, r, sess, cmd, cmd.reply, "")
}

// handleProfile serves the session's phase-level wall-time profile as a
// single JSON line: seconds, call counts and allocation bytes per
// simulator phase (build/dispatch/exec/tick/mcf/...). The profiler's
// accumulators are atomics, so the read is race-free mid-run and never
// goes through the session goroutine — it works on queued, running and
// terminal sessions alike.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	prof.WriteProfilerJSON(w, sess.profiler)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.requestCancel()
	body, _ := json.Marshal(entryFor(sess))
	writeJSON(w, http.StatusOK, append(body, '\n'))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.requestCancel()
	sess.markGone()
	// Reply once the session goroutine has returned, so its engine is
	// garbage when the client sees the 204: a client that deletes and
	// then creates never has two engines live at once. The goroutine
	// notices gone within one advance chunk or what-if.
	select {
	case <-sess.exited:
	case <-r.Context().Done():
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
