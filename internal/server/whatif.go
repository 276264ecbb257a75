package server

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"servicefridge/internal/cluster"
	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/workload"
)

// WhatIfRequest is the POST /sessions/{id}/whatif body: fork the session
// at sim time at_s, apply the perturbations, and report the delta against
// an unperturbed baseline branch. At least one perturbation is required.
// Zero values mean "leave unchanged".
type WhatIfRequest struct {
	// AtS is the fork point in simulation seconds.
	AtS float64 `json:"at_s"`
	// Budget retargets the power budget fraction, as SetBudgetFraction.
	Budget float64 `json:"budget,omitempty"`
	// MaxFreqGHz clamps every server's DVFS ceiling.
	MaxFreqGHz float64 `json:"max_freq_ghz,omitempty"`
	// LoadFactor multiplies the closed-loop worker count.
	LoadFactor float64 `json:"load_factor,omitempty"`
	// RateFactor scales the session's time-varying traffic profile from
	// the fork point on. Requires a scenario with a workload section.
	RateFactor float64 `json:"rate_factor,omitempty"`
	// Profile swaps the traffic profile at the fork point to a registered
	// generator ("diurnal", "flash-crowd", ...). Requires a workload
	// section; the generated schedule covers the rest of the run.
	Profile string `json:"profile,omitempty"`
	// Rate is the base per-region level for the swapped Profile. Zero
	// inherits the scenario workload's own rate (trace-driven sessions
	// carry no rate, so there it is required).
	Rate float64 `json:"rate,omitempty"`
}

func (q WhatIfRequest) validate() error {
	if q.AtS < 0 {
		return fmt.Errorf("at_s %v must not be negative", q.AtS)
	}
	if q.Budget == 0 && q.MaxFreqGHz == 0 && q.LoadFactor == 0 && q.RateFactor == 0 && q.Profile == "" {
		return fmt.Errorf("what-if needs at least one perturbation (budget, max_freq_ghz, load_factor, rate_factor, profile)")
	}
	if q.Budget < 0 || q.Budget > 1 {
		return fmt.Errorf("budget %v must be in (0, 1]", q.Budget)
	}
	if q.MaxFreqGHz < 0 {
		return fmt.Errorf("max_freq_ghz %v must not be negative", q.MaxFreqGHz)
	}
	if q.LoadFactor < 0 {
		return fmt.Errorf("load_factor %v must not be negative", q.LoadFactor)
	}
	if q.RateFactor < 0 {
		return fmt.Errorf("rate_factor %v must not be negative", q.RateFactor)
	}
	if q.Profile != "" {
		if _, ok := workload.Lookup(q.Profile); !ok {
			return fmt.Errorf("unknown profile %q (known: %s)",
				q.Profile, strings.Join(workload.Names(), ", "))
		}
	}
	if q.Rate < 0 {
		return fmt.Errorf("rate %v must not be negative", q.Rate)
	}
	if q.Rate != 0 && q.Profile == "" {
		return fmt.Errorf("rate needs profile")
	}
	return nil
}

func parseWhatIf(r io.Reader) (WhatIfRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q WhatIfRequest
	if err := dec.Decode(&q); err != nil {
		return q, err
	}
	return q, q.validate()
}

// branchDoc summarizes one what-if branch (post-warmup aggregate).
type branchDoc struct {
	P90Ms             float64 `json:"p90_ms"`
	P99Ms             float64 `json:"p99_ms"`
	ViolationFraction float64 `json:"violation_fraction"`
	FirstViolationS   float64 `json:"first_violation_s"` // -1 when never tripped
}

// whatIfDoc is the response body. Like /result, everything in it derives
// from (scenario, query) alone, so identical queries — from any client,
// against any session running the same scenario — return byte-identical
// bodies.
type whatIfDoc struct {
	Scenario  experiments.Scenario `json:"scenario"`
	Query     WhatIfRequest        `json:"query"`
	Baseline  branchDoc            `json:"baseline"`
	Perturbed branchDoc            `json:"perturbed"`
	Delta     struct {
		P90Ms             float64 `json:"p90_ms"`
		P99Ms             float64 `json:"p99_ms"`
		ViolationFraction float64 `json:"violation_fraction"`
	} `json:"delta"`
}

type whatifCmd struct {
	req   WhatIfRequest
	reply chan cmdReply
}

// cmdReply is the session goroutine's answer to any sessionCmd.
type cmdReply struct {
	status int
	body   []byte // response document, or an error message when status != 200
}

func (c *whatifCmd) fail(status int, msg string) {
	c.reply <- cmdReply{status: status, body: errorBody(msg)}
}

func (c *whatifCmd) exec(s *session, res *engine.Result) {
	s.execWhatif(res, c)
}

// forkCacheSize bounds the fork-point bookmarks a session caches besides
// its t=0 base; the least recently used one goes first.
const forkCacheSize = 8

// bookmarks is a session's what-if state: the t=0 base, fork-point
// bookmarks of the unperturbed run (least recently used first), and the
// baseline branch, which is the same for every query.
type bookmarks struct {
	base     *engine.RunState
	forks    []*engine.RunState
	baseline *branchDoc
}

// forkAt leaves the run at the unperturbed state of time at: it restores
// the cached bookmark there, or advances the nearest cached bookmark
// before at (engine.ForkAt) and caches the new one.
func (b *bookmarks) forkAt(res *engine.Result, at sim.Time) error {
	from := b.base
	for i, bm := range b.forks {
		if bm.Now() == at {
			copy(b.forks[i:], b.forks[i+1:])
			b.forks[len(b.forks)-1] = bm
			res.Restore(bm)
			return nil
		}
		if bm.Now() < at && bm.Now() > from.Now() {
			from = bm
		}
	}
	bm, err := res.ForkAt(from, at)
	if err != nil {
		return err
	}
	if len(b.forks) == forkCacheSize {
		b.forks = append(b.forks[:0], b.forks[1:]...)
	}
	b.forks = append(b.forks, bm)
	return nil
}

func branchStats(res *engine.Result, tel *telemetry.Telemetry) branchDoc {
	sum := res.Summary("")
	d := branchDoc{P90Ms: ms(sum.P90), P99Ms: ms(sum.P99), FirstViolationS: -1}
	for _, r := range tel.SLOReport() {
		if r.Series != "all" {
			continue
		}
		if r.EvalTicks > 0 {
			d.ViolationFraction = float64(r.ViolationTicks) / float64(r.EvalTicks)
		}
		if r.FirstViolation >= 0 {
			d.FirstViolationS = r.FirstViolation.Seconds()
		}
	}
	return d
}

// execWhatif runs one what-if on the session goroutine, which owns the
// engine. The protocol (see internal/engine/fork.go): bookmark where the
// run is paused, run the baseline branch to completion once per session,
// restore (or make) the bookmark at the fork point, run the perturbed
// branch, then restore the paused bookmark — the detour is invisible to
// the session's own outputs. Telemetry publication is suspended for the
// duration so /status and the stream never see detour state.
func (s *session) execWhatif(res *engine.Result, cmd *whatifCmd) {
	// The range is checked in float nanoseconds, before sim.Time wraps a
	// value past the int64 range: the conversion truncates, so the fork
	// time exceeds the end exactly when ns >= total+1.
	ns := cmd.req.AtS * 1e9
	if total := res.Total(); ns >= float64(total)+1 {
		cmd.fail(statusUnprocessable, fmt.Sprintf("at_s %v exceeds the run's end at %v s", cmd.req.AtS, total.Seconds()))
		return
	}
	at := sim.Time(ns)

	// Traffic perturbations are validated — and the swap profile built —
	// before any fork, so a bad query fails fast with the session
	// untouched. Everything derives from (scenario, query) alone, keeping
	// the response deterministic.
	var swap *workload.Profile
	if cmd.req.RateFactor != 0 || cmd.req.Profile != "" {
		if res.Driver == nil {
			cmd.fail(statusUnprocessable,
				"session has no time-varying workload (rate_factor/profile need a scenario workload section)")
			return
		}
	}
	if cmd.req.Profile != "" {
		rate := cmd.req.Rate
		if rate == 0 && s.scenario.Workload != nil {
			rate = s.scenario.Workload.Rate
		}
		if rate <= 0 {
			cmd.fail(statusUnprocessable,
				"rate is required to swap the profile of a trace-driven session")
			return
		}
		reg, _ := workload.Lookup(cmd.req.Profile) // validated on parse
		// Generate over the regions the live profile drives — a trace may
		// cover a subset of the app's regions, and only those have
		// generators to swap onto.
		regions := res.Config.Profile.Regions()
		rates := make(map[string]float64, len(regions))
		for _, r := range regions {
			rates[r] = rate
		}
		prof, err := reg.New(workload.GenInput{
			Regions: regions,
			Rates:   rates,
			Horizon: time.Duration(res.Total()),
			Seed:    s.scenario.Seed,
		})
		if err != nil {
			cmd.fail(statusUnprocessable, err.Error())
			return
		}
		swap = prof
	}

	s.tel.SetPublishing(false)
	defer s.tel.SetPublishing(true)
	paused := res.Snapshot()
	defer res.Restore(paused)

	// The baseline is the unperturbed run to its end whatever the fork
	// point, so it runs once per session, from where the run is paused (a
	// done session is already there).
	if s.bm.baseline == nil {
		res.Finish()
		d := branchStats(res, s.tel)
		s.bm.baseline = &d
	}
	baseline := *s.bm.baseline

	if err := s.bm.forkAt(res, at); err != nil { // unreachable: at is within the run
		cmd.fail(statusInternal, err.Error())
		return
	}
	if cmd.req.Budget != 0 {
		res.SetBudgetFraction(cmd.req.Budget)
	}
	if cmd.req.MaxFreqGHz != 0 {
		res.ClampFreq(cluster.GHz(cmd.req.MaxFreqGHz))
	}
	if cmd.req.LoadFactor != 0 {
		res.ScaleWorkers(cmd.req.LoadFactor)
	}
	if cmd.req.RateFactor != 0 {
		if err := res.ScaleTraffic(cmd.req.RateFactor); err != nil { // unreachable: checked pre-fork
			cmd.fail(statusInternal, err.Error())
			return
		}
	}
	if swap != nil {
		if err := res.SwapProfile(swap); err != nil { // unreachable: checked pre-fork
			cmd.fail(statusInternal, err.Error())
			return
		}
	}
	res.Finish()
	perturbed := branchStats(res, s.tel)

	doc := whatIfDoc{Scenario: s.scenario, Query: cmd.req, Baseline: baseline, Perturbed: perturbed}
	doc.Delta.P90Ms = perturbed.P90Ms - baseline.P90Ms
	doc.Delta.P99Ms = perturbed.P99Ms - baseline.P99Ms
	doc.Delta.ViolationFraction = perturbed.ViolationFraction - baseline.ViolationFraction
	body, merr := json.Marshal(doc)
	if merr != nil { // unreachable: plain data
		cmd.fail(statusInternal, merr.Error())
		return
	}
	cmd.reply <- cmdReply{status: statusOK, body: append(body, '\n')}
}
