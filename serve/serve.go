// Package serve is the live introspection server: a small HTTP endpoint
// set over the metrics, SLO, trace and decision-journal subsystems,
// designed so a running experiment can be inspected from outside the
// process with ZERO perturbation of the simulated run.
//
// Everything the handlers read is either host-side (atomic recorder
// counters, lock-protected sampler copies, copy-on-write journals) or a
// snapshot published from the simulator's driver thread at sampler cadence
// (trace hot lines, which are unsafe to aggregate while spans are being
// emitted). No handler charges simulated cycles, so results are
// bit-identical with the server enabled or disabled — a property the tests
// enforce.
//
// What the endpoints read is one Source, installed whole by Attach. Its
// Report provider is the one source of run facts: /debug/slo, the
// /debug/shards counters and the /debug/vars labels and trace health are
// all read from the same report /debug/metrics serves.
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
// or post-run, with an explicit source:
//
//	at, _ := harness.RunAutotune(36, harness.Config{}) // hcfbench -fig autotune's run
//	srv.Attach(serve.Source{
//		Report:  func() *metrics.Report { return &rep },
//		Journal: serve.JournalOf(&at.Journal.Log), // or a shard.Rebalancer's Journal()
//	})
//
// Endpoints (all JSON unless ?format says otherwise):
//
//	/debug           index of everything below
//	/debug/metrics   full report (?format=prom | text | json)
//	/debug/intervals the report's per-interval series with backlog gauges
//	/debug/slo       the report's SLO objectives, burn rates, verdicts (?format=prom | text)
//	/debug/shards    {"topology": ..., "counters": [...]}: the report's
//	                 per-shard ops/commits/aborts/combining breakdown, and
//	                 with a Topology provider (elastic engines) the ring
//	                 epoch, slot ownership and split/merge totals
//	/debug/sojourn   per-class sojourn latency through p9999 (harness.ClassSojourn rows)
//	/debug/hotlines  trace conflict attribution (published at tick cadence)
//	/debug/journal   a decision journal, the tuner's or the rebalancer's (?n=K tails the last K)
//	/debug/vars      scalar gauges: now, backlog, and the report's labels and trace health
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

	"hcf/internal/harness"
	"hcf/internal/journal"
	"hcf/internal/metrics"
	"hcf/internal/shard"
	"hcf/internal/trace"
)

// Vars is the /debug/vars payload: scalar gauges about the run.
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

// Shards is the /debug/shards payload: the report's per-shard counters,
// with the ring topology alongside when the source has one (elastic
// engines).
type Shards struct {
	Topology *shard.Topology         `json:"topology,omitempty"`
	Counters []metrics.GroupCounters `json:"counters"`
}

// Source is what the endpoints read. Report is the one source of run
// facts: it feeds /debug/metrics and /debug/intervals, /debug/slo (its
// SLO), the /debug/shards counters (Totals.ByGroup) and the /debug/vars
// labels and trace health. The other providers add what a report does
// not carry. Each is called per request and must be safe for concurrent
// use; a nil one leaves its endpoint answering 404 (or its gauge zero).
type Source struct {
	Report func() *metrics.Report
	// Sojourn feeds /debug/sojourn.
	Sojourn func() []harness.ClassSojourn
	// Backlog feeds the /debug/vars backlog gauge.
	Backlog func() int64
	// Topology adds the live ring to /debug/shards.
	Topology func() *shard.Topology
	// Journal returns a decision log's last n entries, or all of them
	// when n < 0, for /debug/journal; JournalOf adapts any journal.Log.
	Journal func(n int) any
}

// JournalOf adapts l to Source.Journal. An empty log answers [].
func JournalOf[T any](l *journal.Log[T]) func(n int) any {
	return func(n int) any {
		es := l.Entries()
		if n >= 0 {
			es = journal.Tail(es, n)
		}
		if es == nil {
			es = []T{}
		}
		return es
	}
}

// report calls the Report provider, if any.
func (src *Source) report() *metrics.Report {
	if src.Report == nil {
		return nil
	}
	return src.Report()
}

// Server serves the introspection endpoints. The zero value is not usable;
// call New. A Source is installed either explicitly (Attach) or by
// attaching the server to an open-loop run as its observer.
type Server struct {
	src      atomic.Pointer[Source]
	hotlines atomic.Pointer[[]trace.HotLine]
	traceCol atomic.Pointer[trace.Collector]
	lastTick atomic.Int64

	mux  *http.ServeMux
	mu   sync.Mutex // guards http and ln
	http *http.Server
	ln   net.Listener
}

// New creates a server with no source attached; endpoints answer 404
// until one is.
func New() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.Attach(Source{})
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
	s.mu.Lock()
	defer s.mu.Unlock()
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

// Attach installs src as what every endpoint reads, replacing the
// previous source whole. Each request loads the source once.
func (s *Server) Attach(src Source) { s.src.Store(&src) }

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
	rep := s.src.Load().report()
	if rep == nil {
		http.Error(w, "no metrics provider configured", http.StatusNotFound)
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
	rep := s.src.Load().report()
	if rep == nil {
		http.Error(w, "no metrics provider configured", http.StatusNotFound)
		return
	}
	writeJSON(w, rep.Intervals)
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	var snap *metrics.SLOSnapshot
	if rep := s.src.Load().report(); rep != nil {
		snap = rep.SLO
	}
	if snap == nil {
		http.Error(w, "no SLO provider configured", http.StatusNotFound)
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
	src := s.src.Load()
	rep := src.report()
	if rep == nil && src.Topology == nil {
		http.Error(w, "no shard provider configured", http.StatusNotFound)
		return
	}
	out := Shards{Counters: []metrics.GroupCounters{}}
	if rep != nil && rep.Totals.ByGroup != nil {
		out.Counters = rep.Totals.ByGroup
	}
	if src.Topology != nil {
		out.Topology = src.Topology()
	}
	writeJSON(w, out)
}

func (s *Server) handleSojourn(w http.ResponseWriter, r *http.Request) {
	fn := s.src.Load().Sojourn
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
	tail := s.src.Load().Journal
	if tail == nil {
		http.Error(w, "no journal configured", http.StatusNotFound)
		return
	}
	n := -1
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		var err error
		if n, err = strconv.Atoi(nStr); err != nil || n < 0 {
			http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
			return
		}
	}
	writeJSON(w, tail(n))
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	src := s.src.Load()
	v := Vars{Now: s.lastTick.Load()}
	if rep := src.report(); rep != nil {
		v.Scenario, v.Engine, v.Threads, v.Trace = rep.Scenario, rep.Engine, rep.Threads, rep.Trace
	}
	if src.Backlog != nil {
		v.Backlog = src.Backlog()
	}
	writeJSON(w, v)
}
