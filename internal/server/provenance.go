package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"servicefridge/internal/engine"
	"servicefridge/internal/obs"
	"servicefridge/internal/sim"
)

// This file implements the decision-provenance read side of the control
// plane: GET /sessions/{id}/ledger serves the session's hash-chained run
// ledger as JSONL, and GET /sessions/{id}/explain?t=N expands one sealed
// tick into its ledger entry plus the cause-bearing events recorded in
// that tick's window. Both execute on the session goroutine (the engine's
// owner), and both are read-only: they serve already-sealed state and
// cannot perturb the run.
//
// Determinism: once a session is done, the ledger body is byte-identical
// to `cmd/fridge -ledger` at the same scenario, and /explain bodies
// derive from (scenario, t) alone. Mid-run, both serve the prefix sealed
// so far.

// ledgerCmd answers GET /sessions/{id}/ledger.
type ledgerCmd struct {
	reply chan cmdReply
}

func (c *ledgerCmd) fail(status int, msg string) {
	c.reply <- cmdReply{status: status, body: errorBody(msg)}
}

func (c *ledgerCmd) exec(s *session, res *engine.Result) {
	led := res.Config.Ledger
	if led == nil { // unreachable: run() always attaches a ledger
		c.fail(statusInternal, "session has no ledger")
		return
	}
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil { // unreachable: bytes.Buffer
		c.fail(statusInternal, err.Error())
		return
	}
	c.reply <- cmdReply{status: statusOK, body: b.Bytes()}
}

// explainCmd answers GET /sessions/{id}/explain?t=N for sealed tick N.
type explainCmd struct {
	tick  int
	reply chan cmdReply
}

func (c *explainCmd) fail(status int, msg string) {
	c.reply <- cmdReply{status: status, body: errorBody(msg)}
}

// explainDoc is the /explain response: one ledger entry expanded with the
// decision records of its tick window. Field order is fixed and every
// value derives from (scenario, t), so identical queries return
// byte-identical bodies.
type explainDoc struct {
	Tick       int               `json:"tick"`
	At         int64             `json:"at"`
	TickEvents uint64            `json:"tick_events"`
	Events     string            `json:"events"`
	State      string            `json:"state"`
	RNG        string            `json:"rng"`
	Chain      string            `json:"chain"`
	Causes     []json.RawMessage `json:"causes"`
	Other      []json.RawMessage `json:"other"`
	// EventsDropped counts ring-buffer overwrites at answer time; when
	// nonzero, early tick windows may be missing records (the ledger
	// hashes at emit time, so the chain itself is unaffected).
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

func (c *explainCmd) exec(s *session, res *engine.Result) {
	led := res.Config.Ledger
	if led == nil { // unreachable: run() always attaches a ledger
		c.fail(statusInternal, "session has no ledger")
		return
	}
	entries := led.Entries()
	if len(entries) == 0 {
		c.fail(statusConflict, "no ticks sealed yet")
		return
	}
	if c.tick < 0 || c.tick >= len(entries) {
		c.fail(statusUnprocessable,
			fmt.Sprintf("tick %d out of range [0, %d)", c.tick, len(entries)))
		return
	}
	e := entries[c.tick]
	doc := explainDoc{
		Tick:       c.tick,
		At:         int64(e.At),
		TickEvents: e.N,
		Events:     fmt.Sprintf("%016x", e.Events),
		State:      fmt.Sprintf("%016x", e.State),
		RNG:        fmt.Sprintf("%016x", e.RNG),
		Chain:      fmt.Sprintf("%016x", e.Chain),
		Causes:     []json.RawMessage{},
		Other:      []json.RawMessage{},
	}
	var lo sim.Time
	if c.tick > 0 {
		lo = entries[c.tick-1].At
	}
	rec := res.Config.Events
	doc.EventsDropped = rec.Dropped()
	for _, r := range rec.Events() {
		if r.At <= lo || r.At > e.At {
			continue
		}
		line := rec.AppendJSONLine(nil, r)
		if r.Cause.Signal != obs.NoSignal {
			doc.Causes = append(doc.Causes, json.RawMessage(line))
		} else {
			doc.Other = append(doc.Other, json.RawMessage(line))
		}
	}
	body, err := json.Marshal(doc)
	if err != nil { // unreachable: plain data
		c.fail(statusInternal, err.Error())
		return
	}
	c.reply <- cmdReply{status: statusOK, body: append(body, '\n')}
}
