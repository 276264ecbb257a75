package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"servicefridge/internal/sim"
)

// Snapshot is one immutable capture of the live run, published by the
// sampling loop and read by HTTP handlers. All slices are private copies
// (or immutable bound name lists); a snapshot never changes after
// publication, so readers need no locking beyond the atomic load.
type Snapshot struct {
	At       sim.Time
	Scheme   string
	Regions  []string
	Services []string
	Sample   Sample
	SLO      []SeriesSLO
	Interval time.Duration
}

// publisher is the one-way channel from the (single-threaded, determinism
// -critical) simulation loop to concurrent HTTP readers: the sampler
// builds a fresh immutable Snapshot and swaps one pointer; scrapers load
// whatever snapshot is current. The sim loop never blocks on, waits for,
// or reads anything from the serving side, so scraping cannot perturb
// the run.
type publisher struct {
	snap atomic.Pointer[Snapshot]
	hist atomic.Pointer[history]
}

// history is an immutable chunk of the publication sequence: snaps[i]
// carries sequence number base+i. Publication installs a fresh chunk
// (copy-on-write), so readers use whatever chunk they loaded without
// locking — the same one-way discipline as the single-snapshot pointer.
type history struct {
	base  uint64
	snaps []*Snapshot
}

// maxHistory caps the retained publication history; past it the older
// half is dropped and streams that fell that far behind skip forward.
const maxHistory = 8192

// EnablePublishing turns on snapshot publication. Off by default because
// building the immutable snapshot allocates — only the serving CLI pays
// that cost; the bench-gated sampling path stays allocation-free.
func (t *Telemetry) EnablePublishing() { t.publishing = true }

// SetPublishing toggles snapshot publication. The what-if control plane
// pauses publication while it replays forked branches on a session's
// engine — those samples are detour state, not the live run — and
// resumes it afterwards. Call only from the goroutine driving the
// simulation; the previously published snapshot stays readable while
// publication is off.
func (t *Telemetry) SetPublishing(on bool) { t.publishing = on }

// publish builds and atomically installs a fresh snapshot of row.
func (t *Telemetry) publish(row *Sample) {
	snap := &Snapshot{
		At:       row.At,
		Scheme:   t.b.Scheme,
		Regions:  t.b.Regions,
		Services: t.b.Services,
		Sample:   cloneSample(row),
		SLO:      t.SLOReport(),
		Interval: t.opt.Interval,
	}
	t.pub.snap.Store(snap)
	var h history
	if old := t.pub.hist.Load(); old != nil {
		h = *old
	}
	if len(h.snaps) >= maxHistory {
		drop := len(h.snaps) / 2
		h.base += uint64(drop)
		h.snaps = h.snaps[drop:]
	}
	snaps := make([]*Snapshot, 0, len(h.snaps)+1)
	snaps = append(append(snaps, h.snaps...), snap)
	t.pub.hist.Store(&history{base: h.base, snaps: snaps})
}

// PublishedSince returns every published snapshot with sequence number
// >= seq, in publication order, plus the sequence number to resume from.
// It backs the control plane's chunked-JSONL session streams: a stream
// tracks its own cursor and never misses a snapshot, however fast the
// simulation outpaces it (up to the maxHistory trim).
func (t *Telemetry) PublishedSince(seq uint64) ([]*Snapshot, uint64) {
	h := t.pub.hist.Load()
	if h == nil {
		return nil, seq
	}
	if seq < h.base {
		seq = h.base
	}
	end := h.base + uint64(len(h.snaps))
	if seq >= end {
		return nil, end
	}
	return h.snaps[seq-h.base:], end
}

// LoadSnapshot returns the most recently published snapshot, or nil
// before the first sample (or when publishing is disabled). Safe to call
// from any goroutine.
func (t *Telemetry) LoadSnapshot() *Snapshot { return t.pub.snap.Load() }

// Register mounts the live-telemetry routes on mux: Prometheus
// text-format /metrics (snapshot-derived families plus the process-level
// go_*/build/phase families), a JSON /status snapshot with a build
// block, and /healthz. Built on the published snapshot and process state
// only — handlers never touch the running simulation. Callers composing
// a larger surface (the control plane in internal/server) register onto
// their own mux.
func Register(mux *http.ServeMux, t *Telemetry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		WriteMetricsTo(&buf, t.LoadSnapshot())
		WriteProcessMetricsTo(&buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeStatusWithBuild(w, t.LoadSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
}

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promWriter accumulates one exposition document, emitting each metric's
// HELP/TYPE header once before its first sample line.
type promWriter struct {
	buf    *bytes.Buffer
	headed map[string]bool
}

func (p *promWriter) header(name, help, typ string) {
	if p.headed[name] {
		return
	}
	p.headed[name] = true
	p.buf.WriteString("# HELP " + name + " " + help + "\n")
	p.buf.WriteString("# TYPE " + name + " " + typ + "\n")
}

// sample writes one line: name{labels} value. labels alternate key,
// value and may be empty.
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.buf.WriteString(name)
	if len(labels) > 0 {
		p.buf.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.buf.WriteByte(',')
			}
			p.buf.WriteString(labels[i])
			p.buf.WriteString(`="`)
			p.buf.WriteString(promEscape(labels[i+1]))
			p.buf.WriteByte('"')
		}
		p.buf.WriteByte('}')
	}
	p.buf.WriteByte(' ')
	p.buf.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	p.buf.WriteByte('\n')
}

func (p *promWriter) gauge(name, help string, value float64, labels ...string) {
	p.header(name, help, "gauge")
	p.sample(name, value, labels...)
}

func (p *promWriter) counter(name, help string, value float64, labels ...string) {
	p.header(name, help, "counter")
	p.sample(name, value, labels...)
}

func secs(d time.Duration) float64 { return float64(d) / 1e9 }

// WriteMetricsTo renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), entirely hand-rolled on the standard library.
// A nil snapshot (nothing published yet) renders fridge_up 0.
func WriteMetricsTo(buf *bytes.Buffer, snap *Snapshot) {
	p := &promWriter{buf: buf, headed: map[string]bool{}}
	if snap == nil {
		p.gauge("fridge_up", "Whether a telemetry snapshot has been published.", 0)
		return
	}
	s := &snap.Sample
	p.gauge("fridge_up", "Whether a telemetry snapshot has been published.", 1)
	p.gauge("fridge_sim_time_seconds", "Simulation clock at the snapshot.", secs(time.Duration(snap.At)))
	if s.HasCluster {
		p.gauge("fridge_power_watts", "Cluster power draw over the last meter window.", s.PowerW)
		p.gauge("fridge_power_budget_watts", "Admissible cluster power budget.", s.BudgetW)
		p.gauge("fridge_power_headroom_watts", "Budget minus draw.", s.HeadroomW)
		p.gauge("fridge_cluster_utilization", "Capacity-weighted mean server utilization.", s.Util)
	}
	if s.HasZones {
		for z, name := range ZoneNames {
			p.gauge("fridge_zone_power_watts", "Per-zone power draw.", s.ZoneW[z], "zone", name)
		}
		for z, name := range ZoneNames {
			p.gauge("fridge_zone_frequency_ghz", "Per-zone DVFS setting.", s.ZoneGHz[z], "zone", name)
		}
	}
	if s.HasWarm {
		p.gauge("fridge_warm_zone_utilization", "Warm-zone mean utilization (Algorithm 1 input).", s.WarmUtil)
		p.gauge("fridge_warm_zone_alpha", "Warm-zone promotion bound.", s.Alpha)
		p.gauge("fridge_warm_zone_beta", "Warm-zone demotion bound.", s.Beta)
	}
	writeSeries(p, "all", &s.All)
	for i, r := range snap.Regions {
		writeSeries(p, "region:"+r, &s.Regions[i])
	}
	for i, svc := range snap.Services {
		st := &s.Services[i]
		if st.Count == 0 {
			continue
		}
		p.gauge("fridge_service_exec_seconds", "Sliding-window per-service execution-time quantiles.",
			secs(st.P95), "service", svc, "quantile", "0.95")
	}
	if s.HasMCF {
		for i, svc := range snap.Services {
			p.gauge("fridge_service_mcf", "Live normalized microservice criticality factor.", s.MCF[i], "service", svc)
		}
	}
	p.counter("fridge_requests_total", "Completed requests observed.", float64(s.Requests))
	p.counter("fridge_spans_total", "Completed spans observed.", float64(s.Spans))
	p.counter("fridge_migrations_total", "Container migrations.", float64(s.Migrations))
	p.counter("fridge_promotions_total", "Algorithm 1 promotions.", float64(s.Promotions))
	p.counter("fridge_demotions_total", "Algorithm 1 demotions.", float64(s.Demotions))
	p.gauge("fridge_slo_active", "Monitored series currently in violation.", float64(s.SLOActive))
	p.counter("fridge_qos_violations_total", "QoS violation events since start.", float64(s.QoSViolationsTotal))
	p.counter("fridge_events_dropped_total", "Controller events overwritten by obs-ring wraparound.", float64(s.EventsDropped))
	p.counter("fridge_telemetry_samples_dropped_total", "Telemetry samples overwritten by ring wraparound.", float64(s.SamplesDropped))
}

func writeSeries(p *promWriter, series string, st *SeriesStats) {
	p.gauge("fridge_latency_window_count", "Responses in the sliding window.", float64(st.Count), "series", series)
	if st.Count == 0 {
		return
	}
	const help = "Sliding-window response-time quantiles."
	p.gauge("fridge_latency_seconds", help, secs(st.P50), "series", series, "quantile", "0.5")
	p.gauge("fridge_latency_seconds", help, secs(st.P95), "series", series, "quantile", "0.95")
	p.gauge("fridge_latency_seconds", help, secs(st.P99), "series", series, "quantile", "0.99")
}

// statusSeries is /status's per-series latency digest.
type statusSeries struct {
	Series string  `json:"series"`
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// statusZone is /status's per-zone state.
type statusZone struct {
	Zone   string  `json:"zone"`
	PowerW float64 `json:"power_w"`
	GHz    float64 `json:"ghz"`
}

type statusDoc struct {
	// Build identifies the serving binary. Set only on the /status
	// endpoint — session stream lines omit it (constant per process, it
	// would be pure repetition there), which also keeps streamed bytes a
	// function of the snapshot alone.
	Build      *buildDoc          `json:"build,omitempty"`
	Scheme     string             `json:"scheme"`
	SimSeconds float64            `json:"sim_seconds"`
	PowerW     *float64           `json:"power_w,omitempty"`
	BudgetW    *float64           `json:"budget_w,omitempty"`
	HeadroomW  *float64           `json:"headroom_w,omitempty"`
	Zones      []statusZone       `json:"zones,omitempty"`
	WarmUtil   *float64           `json:"warm_util,omitempty"`
	Latency    []statusSeries     `json:"latency"`
	MCF        map[string]float64 `json:"mcf,omitempty"`
	SLO        []SeriesSLO        `json:"slo"`
	Requests   uint64             `json:"requests_total"`
	Migrations uint64             `json:"migrations_total"`
	Promotions uint64             `json:"promotions_total"`
	Demotions  uint64             `json:"demotions_total"`
	// Drop counters appear only when nonzero, so the common lossless run
	// keeps its historical byte layout (the smoke goldens diff it).
	EventsDropped  uint64 `json:"events_dropped_total,omitempty"`
	SamplesDropped uint64 `json:"samples_dropped_total,omitempty"`
}

// WriteStatusTo writes one snapshot as a single line of JSON followed by
// a newline. It backs both the /status endpoint and the control plane's
// chunked-JSONL session streams (one published snapshot per line), so
// the document layout is identical in both places. Field order is fixed
// by the struct and map keys are sorted by encoding/json, making the
// bytes a deterministic function of the snapshot.
func WriteStatusTo(w io.Writer, snap *Snapshot) error {
	return writeStatus(w, snap, nil)
}

// writeStatusWithBuild is WriteStatusTo plus the build block — the
// /status endpoint's variant.
func writeStatusWithBuild(w io.Writer, snap *Snapshot) error {
	b := currentBuild()
	return writeStatus(w, snap, &b)
}

func writeStatus(w io.Writer, snap *Snapshot, build *buildDoc) error {
	if snap == nil {
		// Keep the build block even before the first snapshot (a
		// headless -serve control plane may never publish one).
		if build != nil {
			return json.NewEncoder(w).Encode(struct {
				Build  *buildDoc `json:"build"`
				Status string    `json:"status"`
			}{build, "no snapshot yet"})
		}
		_, err := w.Write([]byte(`{"status":"no snapshot yet"}` + "\n"))
		return err
	}
	s := &snap.Sample
	doc := statusDoc{
		Build:          build,
		Scheme:         snap.Scheme,
		SimSeconds:     secs(time.Duration(snap.At)),
		SLO:            snap.SLO,
		Requests:       s.Requests,
		Migrations:     s.Migrations,
		Promotions:     s.Promotions,
		Demotions:      s.Demotions,
		EventsDropped:  s.EventsDropped,
		SamplesDropped: s.SamplesDropped,
	}
	if s.HasCluster {
		doc.PowerW, doc.BudgetW, doc.HeadroomW = &s.PowerW, &s.BudgetW, &s.HeadroomW
	}
	if s.HasZones {
		for z, name := range ZoneNames {
			doc.Zones = append(doc.Zones, statusZone{Zone: name, PowerW: s.ZoneW[z], GHz: s.ZoneGHz[z]})
		}
	}
	if s.HasWarm {
		doc.WarmUtil = &s.WarmUtil
	}
	doc.Latency = append(doc.Latency, seriesDoc("all", &s.All))
	for i, r := range snap.Regions {
		doc.Latency = append(doc.Latency, seriesDoc("region:"+r, &s.Regions[i]))
	}
	if s.HasMCF {
		doc.MCF = make(map[string]float64, len(snap.Services))
		for i, svc := range snap.Services {
			doc.MCF[svc] = s.MCF[i]
		}
	}
	return json.NewEncoder(w).Encode(doc)
}

func seriesDoc(name string, st *SeriesStats) statusSeries {
	return statusSeries{
		Series: name, Count: st.Count,
		P50Ms: durMs(st.P50), P95Ms: durMs(st.P95), P99Ms: durMs(st.P99),
	}
}
