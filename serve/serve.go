// Package serve is the live introspection server: a small HTTP endpoint
// set over the metrics, SLO, trace and tuner-journal subsystems, designed
// so a running experiment can be inspected from outside the process with
// ZERO perturbation of the simulated run.
//
// Everything the handlers read is either host-side (atomic recorder
// counters, lock-protected sampler copies, copy-on-write journals) or a
// snapshot published from the simulator's driver thread at sampler cadence
// (trace hot lines, which are unsafe to aggregate while spans are being
// emitted). No handler charges simulated cycles, so results are
// bit-identical with the server enabled or disabled — a property the tests
// enforce.
//
// Typical uses:
//
//	srv := serve.New()
//	addr, _ := srv.Start("127.0.0.1:0")   // live endpoints at http://addr/debug
//	// open-loop run: srv implements harness.OpenLoopObserver
//	harness.RunPointOpenLoop(sc, "HCF", 36, cfg, harness.OpenLoopConfig{
//		Rate: 20000, Observer: srv,
//	})
//
// or post-run, with explicit providers:
//
//	srv.SetReport(func() *metrics.Report { return &rep })
//	at, _ := harness.RunAutotune(36, harness.Config{}) // hcfbench -fig autotune's run
//	srv.SetJournal(at.Journal)
//
// Endpoints (all JSON unless ?format says otherwise):
//
//	/debug           index of everything below
//	/debug/metrics   full report (?format=prom | text | json)
//	/debug/intervals per-interval time series with backlog gauges
//	/debug/slo       SLO objectives, burn rates, verdicts (?format=prom | text)
//	/debug/shards    per-shard ops/commits/aborts/combining breakdown;
//	                 with SetTopology (elastic engines) the payload is
//	                 {"topology": ..., "counters": [...]} adding ring
//	                 epoch, slot ownership and split/merge totals
//	/debug/sojourn   per-class sojourn latency through p9999 (harness.ClassSojourn rows)
//	/debug/hotlines  trace conflict attribution (published at tick cadence)
//	/debug/journal   autotuner decision journal (?n=K tails the last K)
//	/debug/vars      cheap scalar gauges: now, backlog, trace health
//	/debug/pprof/    the standard Go profiler endpoints
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"hcf/internal/adaptive"
	"hcf/internal/harness"
	"hcf/internal/metrics"
	"hcf/internal/shard"
	"hcf/internal/trace"
)

// Vars is the /debug/vars payload: cheap scalar gauges about the run.
type Vars struct {
	Scenario string `json:"scenario,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	// Now is the virtual time of the last driver tick.
	Now int64 `json:"now"`
	// Backlog is arrived-but-uncompleted operations as of Now.
	Backlog int64 `json:"backlog"`
	// Trace is flight-recorder health, when tracing is enabled.
	Trace *metrics.TraceHealth `json:"trace,omitempty"`
}

// Server serves the introspection endpoints. The zero value is not usable;
// call New. Providers are installed either explicitly (SetReport etc.) or
// by attaching the server to an open-loop run as its observer.
type Server struct {
	mu       sync.RWMutex
	scenario string
	engine   string
	threads  int

	report   func() *metrics.Report
	slo      func() *metrics.SLOSnapshot
	shards   func() []metrics.GroupCounters
	topology func() *shard.Topology
	sojourn  func() []harness.ClassSojourn
	health   func() *metrics.TraceHealth
	backlog  func() int64
	journal  *adaptive.Journal

	hotlines atomic.Pointer[[]trace.HotLine]
	traceCol *trace.Collector
	lastTick atomic.Int64

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener
}

// New creates a server with no providers installed; endpoints without a
// provider answer 404 until one is set.
func New() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.mux.HandleFunc("/debug", s.handleIndex)
	s.mux.HandleFunc("/debug/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/intervals", s.handleIntervals)
	s.mux.HandleFunc("/debug/slo", s.handleSLO)
	s.mux.HandleFunc("/debug/shards", s.handleShards)
	s.mux.HandleFunc("/debug/sojourn", s.handleSojourn)
	s.mux.HandleFunc("/debug/hotlines", s.handleHotLines)
	s.mux.HandleFunc("/debug/journal", s.handleJournal)
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the endpoint mux (for tests or embedding into an
// existing server).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr ("host:port"; port 0 picks a free one) and serves
// in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.http = &http.Server{Handler: s.mux}
	srv := s.http
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// SetMeta labels the run the endpoints describe.
func (s *Server) SetMeta(scenario, engine string, threads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scenario, s.engine, s.threads = scenario, engine, threads
}

// SetReport installs the /debug/metrics and /debug/intervals provider. The
// function is called per request and must be safe for concurrent use.
func (s *Server) SetReport(fn func() *metrics.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.report = fn
}

// SetSLO installs the /debug/slo provider.
func (s *Server) SetSLO(fn func() *metrics.SLOSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slo = fn
}

// SetShards installs the /debug/shards provider.
func (s *Server) SetShards(fn func() []metrics.GroupCounters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards = fn
}

// SetTopology installs the elastic-topology provider. When set,
// /debug/shards answers with an object {"topology": ..., "counters":
// [...]} — ring epoch, active/provisioned shards, slot ownership,
// split/merge/migration totals alongside the per-shard counters —
// instead of the bare counters array a static sharded engine gets.
func (s *Server) SetTopology(fn func() *shard.Topology) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.topology = fn
}

// SetSojourn installs the /debug/sojourn provider.
func (s *Server) SetSojourn(fn func() []harness.ClassSojourn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sojourn = fn
}

// SetTraceHealth installs the trace-health gauge used by /debug/vars.
func (s *Server) SetTraceHealth(fn func() *metrics.TraceHealth) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health = fn
}

// SetBacklog installs the live backlog gauge used by /debug/vars.
func (s *Server) SetBacklog(fn func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backlog = fn
}

// SetJournal installs the autotuner decision journal for /debug/journal.
// The journal is copy-on-write, so it may still be appended to.
func (s *Server) SetJournal(j *adaptive.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// PublishHotLines atomically replaces the /debug/hotlines snapshot. Call
// it only from a context where aggregating trace events is safe — after a
// run, or from the open-loop driver tick.
func (s *Server) PublishHotLines(hl []trace.HotLine) {
	s.hotlines.Store(&hl)
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
	w.Write([]byte{'\n'})
}

func writePlain(w http.ResponseWriter, text string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{
		"/debug/metrics":   "full metrics report (?format=json|prom|text)",
		"/debug/intervals": "per-interval time series with backlog gauges",
		"/debug/slo":       "SLO objectives, burn rates, verdicts (?format=json|prom|text)",
		"/debug/shards":    "per-shard counters; +ring topology for elastic engines",
		"/debug/sojourn":   "per-class sojourn latency through p9999",
		"/debug/hotlines":  "trace conflict attribution by cache line",
		"/debug/journal":   "autotuner decision journal (?n=K for the last K)",
		"/debug/vars":      "scalar gauges: virtual now, backlog, trace health",
		"/debug/pprof/":    "Go profiler endpoints",
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.report
	s.mu.RUnlock()
	if fn == nil {
		http.Error(w, "no metrics provider configured", http.StatusNotFound)
		return
	}
	rep := fn()
	if rep == nil {
		http.Error(w, "metrics provider returned nothing", http.StatusNotFound)
		return
	}
	switch r.URL.Query().Get("format") {
	case "prom":
		writePlain(w, rep.Prometheus())
	case "text":
		writePlain(w, rep.Text())
	default:
		writeJSON(w, rep)
	}
}

func (s *Server) handleIntervals(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.report
	s.mu.RUnlock()
	if fn == nil {
		http.Error(w, "no metrics provider configured", http.StatusNotFound)
		return
	}
	rep := fn()
	if rep == nil {
		http.Error(w, "metrics provider returned nothing", http.StatusNotFound)
		return
	}
	writeJSON(w, rep.Intervals)
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.slo
	s.mu.RUnlock()
	if fn == nil {
		http.Error(w, "no SLO provider configured", http.StatusNotFound)
		return
	}
	snap := fn()
	if snap == nil {
		http.Error(w, "SLO provider returned nothing", http.StatusNotFound)
		return
	}
	switch r.URL.Query().Get("format") {
	case "prom":
		writePlain(w, snap.Prometheus("hcf"))
	case "text":
		writePlain(w, snap.Text())
	default:
		writeJSON(w, snap)
	}
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.shards
	topo := s.topology
	s.mu.RUnlock()
	if fn == nil && topo == nil {
		http.Error(w, "no shard provider configured", http.StatusNotFound)
		return
	}
	var sh []metrics.GroupCounters
	if fn != nil {
		sh = fn()
	}
	if sh == nil {
		sh = []metrics.GroupCounters{}
	}
	// Static sharded engines keep the original bare-array shape; elastic
	// engines get the object shape with the live topology alongside.
	if topo == nil {
		writeJSON(w, sh)
		return
	}
	writeJSON(w, map[string]any{
		"topology": topo(),
		"counters": sh,
	})
}

func (s *Server) handleSojourn(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	fn := s.sojourn
	s.mu.RUnlock()
	if fn == nil {
		http.Error(w, "no sojourn provider configured", http.StatusNotFound)
		return
	}
	rows := fn()
	if rows == nil {
		rows = []harness.ClassSojourn{}
	}
	writeJSON(w, rows)
}

func (s *Server) handleHotLines(w http.ResponseWriter, r *http.Request) {
	p := s.hotlines.Load()
	if p == nil {
		http.Error(w, "no hot-line snapshot published", http.StatusNotFound)
		return
	}
	hl := *p
	if hl == nil {
		hl = []trace.HotLine{}
	}
	writeJSON(w, hl)
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	j := s.journal
	s.mu.RUnlock()
	if j == nil {
		http.Error(w, "no journal configured", http.StatusNotFound)
		return
	}
	ds := j.Entries()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
			return
		}
		ds = j.Tail(n)
	}
	if ds == nil {
		ds = []adaptive.Decision{}
	}
	writeJSON(w, ds)
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	v := Vars{Scenario: s.scenario, Engine: s.engine, Threads: s.threads}
	backlog, health := s.backlog, s.health
	s.mu.RUnlock()
	v.Now = s.lastTick.Load()
	if backlog != nil {
		v.Backlog = backlog()
	}
	if health != nil {
		v.Trace = health()
	}
	writeJSON(w, v)
}
