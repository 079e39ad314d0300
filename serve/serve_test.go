package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hcf/internal/adaptive"
	"hcf/internal/harness"
	"hcf/internal/memsim"
	"hcf/internal/metrics"
	"hcf/internal/route"
	"hcf/internal/shard"
	"hcf/internal/trace"
)

// get fetches path from the test handler and returns (status, body).
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.String()
}

func TestEndpointsUnconfigured(t *testing.T) {
	s := New()
	h := s.Handler()
	if code, body := get(t, h, "/debug"); code != 200 || !strings.Contains(body, "/debug/metrics") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	for _, ep := range []string{
		"/debug/metrics", "/debug/intervals", "/debug/slo",
		"/debug/shards", "/debug/sojourn", "/debug/hotlines", "/debug/journal",
	} {
		if code, _ := get(t, h, ep); code != http.StatusNotFound {
			t.Errorf("%s without provider: code %d, want 404", ep, code)
		}
	}
	// vars always answers, with zero values.
	code, body := get(t, h, "/debug/vars")
	if code != 200 {
		t.Fatalf("vars: code %d", code)
	}
	var v Vars
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("vars JSON: %v", err)
	}
}

func TestEndpointsWithProviders(t *testing.T) {
	s := New()
	h := s.Handler()

	rec, err := metrics.New(metrics.Config{Shards: 2, Classes: []string{"a", "b"}, TimeUnit: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	rec.RecordOp(0, 0, 0, 100)
	rec.RecordOp(1, 1, 0, 300)
	sampler := metrics.NewSampler(rec, 50)
	sampler.Flush(100)
	tr, err := metrics.NewSLOTracker(rec, metrics.SLOConfig{
		Objectives: []metrics.Objective{{Threshold: 1000, Target: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Step(100)
	var empty adaptive.Journal
	s.Attach(Source{
		Report: func() *metrics.Report {
			rep := metrics.BuildReport(rec, sampler, "scenario-x", "HCF", 2)
			snap := tr.Snapshot()
			rep.SLO = &snap
			rep.Trace = &metrics.TraceHealth{Starts: 2, Retained: 2}
			rep.Totals.ByGroup = []metrics.GroupCounters{{Group: "shard0", Ops: 7}}
			return &rep
		},
		Sojourn: func() []harness.ClassSojourn {
			_, rows := harness.SojournOf(rec)
			return rows[:1] // class a's row
		},
		Backlog: func() int64 { return 5 },
		Journal: JournalOf(&empty.Log),
	})
	s.PublishHotLines([]trace.HotLine{{Line: 42, Aborts: 3, TopWriter: 1, TopWriterAborts: 2}})

	code, body := get(t, h, "/debug/metrics")
	if code != 200 {
		t.Fatalf("metrics: code %d", code)
	}
	var rep metrics.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if rep.Scenario != "scenario-x" || rep.Totals.Ops != 2 {
		t.Fatalf("metrics content: %+v", rep.Totals)
	}
	if code, body := get(t, h, "/debug/metrics?format=prom"); code != 200 ||
		!strings.Contains(body, "hcf_ops_total") || !strings.Contains(body, `quantile="0.999"`) {
		t.Fatalf("prom format: code %d body %.200q", code, body)
	}
	if code, body := get(t, h, "/debug/metrics?format=text"); code != 200 || !strings.Contains(body, "p999") {
		t.Fatalf("text format: code %d body %.200q", code, body)
	}

	code, body = get(t, h, "/debug/intervals")
	var ivs []metrics.Interval
	if err := json.Unmarshal([]byte(body), &ivs); err != nil || code != 200 || len(ivs) == 0 {
		t.Fatalf("intervals: code %d err %v n %d", code, err, len(ivs))
	}

	code, body = get(t, h, "/debug/slo")
	var snap metrics.SLOSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || code != 200 || len(snap.Objectives) != 1 {
		t.Fatalf("slo: code %d err %v", code, err)
	}
	if code, body := get(t, h, "/debug/slo?format=prom"); code != 200 || !strings.Contains(body, "hcf_slo_compliance") {
		t.Fatalf("slo prom: code %d body %.200q", code, body)
	}

	code, body = get(t, h, "/debug/shards")
	var sh Shards
	if err := json.Unmarshal([]byte(body), &sh); err != nil || code != 200 ||
		sh.Topology != nil || len(sh.Counters) != 1 || sh.Counters[0].Group != "shard0" {
		t.Fatalf("shards: code %d err %v body %q", code, err, body)
	}

	code, body = get(t, h, "/debug/sojourn")
	var rows []harness.ClassSojourn
	if err := json.Unmarshal([]byte(body), &rows); err != nil || code != 200 ||
		len(rows) != 1 || rows[0].Class != "a" || rows[0].Count != 1 {
		t.Fatalf("sojourn: code %d err %v body %q", code, err, body)
	}

	code, body = get(t, h, "/debug/hotlines")
	var hls []trace.HotLine
	if err := json.Unmarshal([]byte(body), &hls); err != nil || code != 200 ||
		len(hls) != 1 || hls[0].Line != 42 {
		t.Fatalf("hotlines: code %d err %v body %q", code, err, body)
	}

	code, body = get(t, h, "/debug/journal")
	if code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty journal: code %d body %q", code, body)
	}
	if code, _ := get(t, h, "/debug/journal?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n: code %d", code)
	}
	if code, _ := get(t, h, "/debug/journal?n=2"); code != 200 {
		t.Fatalf("journal tail: code %d", code)
	}

	code, body = get(t, h, "/debug/vars")
	var v Vars
	if err := json.Unmarshal([]byte(body), &v); err != nil || code != 200 {
		t.Fatalf("vars: code %d err %v", code, err)
	}
	if v.Scenario != "scenario-x" || v.Backlog != 5 || v.Trace == nil || v.Trace.Starts != 2 {
		t.Fatalf("vars content: %+v", v)
	}
}

// TestJournalTailParam pins /debug/journal's ?n= validation: only a
// non-negative integer is accepted, and it tails the last n decisions.
func TestJournalTailParam(t *testing.T) {
	j := &adaptive.Journal{}
	for i := 0; i < 3; i++ {
		j.Append(adaptive.Decision{Seq: i, Rule: adaptive.RuleGrowPrivate, Evidence: adaptive.Evidence{Peer: -1}})
	}
	s := New()
	s.Attach(Source{Journal: JournalOf(&j.Log)})
	h := s.Handler()
	for _, tc := range []struct {
		n    string
		code int
		seqs []int
	}{
		{"5abc", http.StatusBadRequest, nil},
		{"-1", http.StatusBadRequest, nil},
		{"x", http.StatusBadRequest, nil},
		{"0", 200, []int{}},
		{"2", 200, []int{1, 2}},
		{"10", 200, []int{0, 1, 2}},
	} {
		code, body := get(t, h, "/debug/journal?n="+tc.n)
		if code != tc.code {
			t.Errorf("n=%s: code %d, want %d (body %q)", tc.n, code, tc.code, body)
			continue
		}
		if code != 200 {
			continue
		}
		var ds []adaptive.Decision
		if err := json.Unmarshal([]byte(body), &ds); err != nil {
			t.Fatalf("n=%s: %v in %q", tc.n, err, body)
		}
		seqs := []int{}
		for _, d := range ds {
			seqs = append(seqs, d.Seq)
		}
		if fmt.Sprint(seqs) != fmt.Sprint(tc.seqs) {
			t.Errorf("n=%s: seqs %v, want %v", tc.n, seqs, tc.seqs)
		}
	}
}

// tickProbe wraps the server observer and, on every driver tick, issues
// synchronous HTTP requests against the live server — guaranteeing the
// endpoints are exercised WHILE the simulated run is in flight, not just
// before or after. The requests block wall-clock time but charge no
// simulated cycles, so they must not change results.
type tickProbe struct {
	*Server
	base   string
	t      *testing.T
	midRun int
	bodies map[string]string
	mu     sync.Mutex
	eps    []string
}

func (p *tickProbe) OpenLoopTick(now int64) {
	p.Server.OpenLoopTick(now)
	eps := p.eps
	if eps == nil {
		eps = []string{
			"/debug/metrics", "/debug/intervals", "/debug/slo",
			"/debug/shards", "/debug/sojourn", "/debug/hotlines", "/debug/vars",
		}
	}
	for _, ep := range eps {
		resp, err := http.Get(p.base + ep)
		if err != nil {
			p.t.Errorf("mid-run GET %s: %v", ep, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			p.t.Errorf("mid-run GET %s: status %d body %q", ep, resp.StatusCode, body)
			continue
		}
		var js any
		if err := json.Unmarshal(body, &js); err != nil {
			p.t.Errorf("mid-run GET %s: invalid JSON: %v", ep, err)
			continue
		}
		p.mu.Lock()
		p.midRun++
		p.bodies[ep] = string(body)
		p.mu.Unlock()
	}
}

// TestOpenLoopBitIdentityWithServer is the acceptance gate for the live
// introspection server: an open-loop run with the server attached and its
// endpoints actively hammered mid-run produces BIT-IDENTICAL results to
// the same run with no server at all.
func TestOpenLoopBitIdentityWithServer(t *testing.T) {
	sc := harness.OpenLoopScenario()
	cfg := harness.Config{Horizon: 150_000, Seed: 1}
	ol := harness.OpenLoopConfig{Rate: 12_000, TraceLimit: 64}

	bare, bareRep, err := harness.RunPointOpenLoop(sc, "HCF", 8, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}

	srv := New()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	probe := &tickProbe{Server: srv, base: "http://" + addr, t: t, bodies: map[string]string{}}

	// Concurrent host-side hammering for race coverage on top of the
	// deterministic tick probes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + "/debug/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}

	olServed := ol
	olServed.Observer = probe
	served, servedRep, err := harness.RunPointOpenLoop(sc, "HCF", 8, cfg, olServed)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if probe.midRun == 0 {
		t.Fatal("no successful mid-run endpoint responses — the server was not live during the run")
	}

	bareJSON, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	servedJSON, err := json.Marshal(served)
	if err != nil {
		t.Fatal(err)
	}
	if string(bareJSON) != string(servedJSON) {
		t.Fatalf("server perturbation detected:\n--- bare ---\n%s\n--- served ---\n%s", bareJSON, servedJSON)
	}
	bareRepJSON, err := bareRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	servedRepJSON, err := servedRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(bareRepJSON) != string(servedRepJSON) {
		t.Fatal("full metrics reports differ between served and bare runs")
	}

	// The mid-run payloads are real live data, not empty shells.
	var v Vars
	if err := json.Unmarshal([]byte(probe.bodies["/debug/vars"]), &v); err != nil {
		t.Fatalf("mid-run vars: %v", err)
	}
	if v.Now == 0 || v.Engine != "HCF" {
		t.Fatalf("mid-run vars not live: %+v", v)
	}
	var rep metrics.Report
	if err := json.Unmarshal([]byte(probe.bodies["/debug/metrics"]), &rep); err != nil {
		t.Fatalf("mid-run metrics: %v", err)
	}
	if rep.Totals.Ops == 0 {
		t.Fatal("mid-run metrics snapshot has zero ops")
	}
	var rows []harness.ClassSojourn
	if err := json.Unmarshal([]byte(probe.bodies["/debug/sojourn"]), &rows); err != nil {
		t.Fatalf("mid-run sojourn: %v", err)
	}
	if len(rows) == 0 || rows[0].Count == 0 {
		t.Fatal("mid-run sojourn snapshot empty")
	}

	// The elastic figure runs through the same driver: HCF-E with its
	// rebalancer stepping, served and polled, matches its bare run too.
	esc := harness.ElasticScenario(40, 1024, 4, 2, 90, cfg.Horizon)
	eol := harness.OpenLoopConfig{Rate: 8000}
	bareEl, err := harness.RunPointElastic(esc, "elastic", true, 8, cfg, eol)
	if err != nil {
		t.Fatal(err)
	}
	elProbe := &tickProbe{
		Server: srv, base: "http://" + addr, t: t, bodies: map[string]string{},
		eps: []string{"/debug/metrics", "/debug/shards", "/debug/sojourn", "/debug/vars"},
	}
	eol.Observer = elProbe
	servedEl, err := harness.RunPointElastic(esc, "elastic", true, 8, cfg, eol)
	if err != nil {
		t.Fatal(err)
	}
	if elProbe.midRun == 0 {
		t.Fatal("no mid-run endpoint responses during the elastic run")
	}
	if len(bareEl.Decisions) == 0 {
		t.Fatal("the rebalancer never stepped during the elastic run")
	}
	bareJSON, _ = json.Marshal(bareEl)
	servedJSON, _ = json.Marshal(servedEl)
	if string(bareJSON) != string(servedJSON) {
		t.Fatalf("server perturbation on elastic run:\n%s\nvs\n%s", bareJSON, servedJSON)
	}
	if err := json.Unmarshal([]byte(elProbe.bodies["/debug/vars"]), &v); err != nil || v.Engine != harness.ElasticEngineName {
		t.Fatalf("mid-run vars during the elastic run: %+v, %v", v, err)
	}
}

// TestOpenLoopShardedEndpoints runs the sharded engine (which has no trace
// support but a grouped recorder) with the server attached: bit-identity
// must hold and the per-shard endpoint must carry live data mid-run.
func TestOpenLoopShardedEndpoints(t *testing.T) {
	sc := harness.OpenLoopScenario()
	cfg := harness.Config{Horizon: 150_000, Seed: 1}
	ol := harness.OpenLoopConfig{Rate: 12_000}

	bare, _, err := harness.RunPointOpenLoop(sc, harness.ShardedEngineName, 8, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	probe := &tickProbe{
		Server: srv, base: "http://" + addr, t: t, bodies: map[string]string{},
		eps: []string{"/debug/metrics", "/debug/shards", "/debug/vars"},
	}
	ol.Observer = probe
	served, _, err := harness.RunPointOpenLoop(sc, harness.ShardedEngineName, 8, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	bareJSON, _ := json.Marshal(bare)
	servedJSON, _ := json.Marshal(served)
	if string(bareJSON) != string(servedJSON) {
		t.Fatalf("server perturbation on sharded run:\n%s\nvs\n%s", bareJSON, servedJSON)
	}
	var sh Shards
	if err := json.Unmarshal([]byte(probe.bodies["/debug/shards"]), &sh); err != nil {
		t.Fatalf("mid-run shards: %v", err)
	}
	groups := sh.Counters
	if len(groups) < 2 {
		t.Fatalf("sharded run exposed %d shard groups, want >= 2", len(groups))
	}
	var ops uint64
	for _, g := range groups {
		ops += g.Ops
	}
	if ops == 0 {
		t.Fatal("per-shard counters all zero mid-run")
	}
	// hotlines stays unpublished without tracing.
	if code, _ := get(t, srv.Handler(), "/debug/hotlines"); code != http.StatusNotFound {
		t.Fatalf("hotlines without tracing: code %d, want 404", code)
	}
}

func TestServerStartClose(t *testing.T) {
	s := New()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr {
		t.Fatalf("Addr %q != bound %q", s.Addr(), addr)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug", addr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("index over TCP: %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if s.Addr() != "" {
		t.Fatalf("Addr after close: %q", s.Addr())
	}
}

// TestShardsTopologyShape pins the one /debug/shards payload shape:
// {"counters": [...]} from the report, with "topology" alongside only
// when the source has a Topology provider (elastic engines).
func TestShardsTopologyShape(t *testing.T) {
	s := New()
	h := s.Handler()
	report := func() *metrics.Report {
		return &metrics.Report{Totals: metrics.Counters{ByGroup: []metrics.GroupCounters{{Group: "shard0", Ops: 7}}}}
	}
	s.Attach(Source{Report: report})

	code, body := get(t, h, "/debug/shards")
	if code != 200 || strings.Contains(body, "\"topology\"") || !strings.Contains(body, "\"counters\"") {
		t.Fatalf("static shape: code %d body %q", code, body)
	}

	s.Attach(Source{
		Report: report,
		Topology: func() *shard.Topology {
			return &shard.Topology{
				Name:        "HCF-E",
				Provisioned: 8,
				Splits:      2,
				MovedKeys:   495,
				Ring:        route.Snapshot{Epoch: 2, Slots: 64, Active: 6},
			}
		},
	})
	code, body = get(t, h, "/debug/shards")
	if code != 200 {
		t.Fatalf("elastic shape: code %d", code)
	}
	var sh Shards
	if err := json.Unmarshal([]byte(body), &sh); err != nil {
		t.Fatalf("elastic shape not an object: %v body %q", err, body)
	}
	if sh.Topology == nil || sh.Topology.Ring.Epoch != 2 || sh.Topology.Splits != 2 {
		t.Fatalf("topology lost in transit: %+v", sh.Topology)
	}
	if len(sh.Counters) != 1 || sh.Counters[0].Group != "shard0" {
		t.Fatalf("counters lost in transit: %+v", sh.Counters)
	}

	// Topology alone (no report) still answers, with empty counters,
	// rather than 404.
	s2 := New()
	s2.Attach(Source{Topology: func() *shard.Topology { return &shard.Topology{Provisioned: 4} }})
	code, body = get(t, s2.Handler(), "/debug/shards")
	if code != 200 || !strings.Contains(body, "\"topology\"") || !strings.Contains(body, "\"counters\": []") {
		t.Fatalf("topology-only: code %d body %q", code, body)
	}
}

// truthProbe checks, at every driver tick, that the endpoints derived
// from the source's one report agree with /debug/metrics read at the
// same instant (every virtual thread is parked, so nothing moves
// between the requests).
type truthProbe struct {
	*Server
	t                      *testing.T
	ticks, groups, healthy int
}

func (p *truthProbe) OpenLoopTick(now int64) {
	p.Server.OpenLoopTick(now)
	t, h := p.t, p.Server.Handler()
	decode := func(ep string, out any) {
		t.Helper()
		code, body := get(t, h, ep)
		if code != 200 {
			t.Fatalf("@%d %s: code %d body %q", now, ep, code, body)
		}
		if err := json.Unmarshal([]byte(body), out); err != nil {
			t.Fatalf("@%d %s: %v", now, ep, err)
		}
	}
	var rep metrics.Report
	var slo metrics.SLOSnapshot
	var sh Shards
	var v Vars
	decode("/debug/metrics", &rep)
	decode("/debug/slo", &slo)
	decode("/debug/shards", &sh)
	decode("/debug/vars", &v)
	if rep.SLO == nil || !reflect.DeepEqual(*rep.SLO, slo) {
		t.Fatalf("@%d /debug/slo differs from the report's SLO:\n%+v\nvs\n%+v", now, slo, rep.SLO)
	}
	if len(sh.Counters) != len(rep.Totals.ByGroup) ||
		(len(sh.Counters) > 0 && !reflect.DeepEqual(sh.Counters, rep.Totals.ByGroup)) {
		t.Fatalf("@%d /debug/shards counters differ from the report's ByGroup:\n%+v\nvs\n%+v", now, sh.Counters, rep.Totals.ByGroup)
	}
	if v.Scenario != rep.Scenario || v.Engine != rep.Engine || v.Threads != rep.Threads ||
		!reflect.DeepEqual(v.Trace, rep.Trace) {
		t.Fatalf("@%d /debug/vars disagrees with the report: %+v vs %s/%s/%d trace %+v",
			now, v, rep.Scenario, rep.Engine, rep.Threads, rep.Trace)
	}
	p.ticks++
	if len(sh.Counters) >= 2 {
		p.groups++
	}
	if v.Trace != nil && v.Trace.Starts > 0 {
		p.healthy++
	}
}

// TestOneSourceOneTruth attaches a server to short open-loop runs (the
// sharded engine for per-shard counters, traced HCF for trace health)
// and requires /debug/slo, the /debug/shards counters and the
// /debug/vars labels and trace health to equal the matching fields of
// /debug/metrics at every tick.
func TestOneSourceOneTruth(t *testing.T) {
	sc := harness.OpenLoopScenario()
	cfg := harness.Config{Horizon: 60_000, Seed: 1}
	for _, tc := range []struct {
		engine     string
		traceLimit int
	}{{harness.ShardedEngineName, 0}, {"HCF", 64}} {
		probe := &truthProbe{Server: New(), t: t}
		ol := harness.OpenLoopConfig{Rate: 12_000, TraceLimit: tc.traceLimit, Observer: probe}
		if _, _, err := harness.RunPointOpenLoop(sc, tc.engine, 8, cfg, ol); err != nil {
			t.Fatal(err)
		}
		if probe.ticks == 0 {
			t.Fatalf("%s: the observer was never ticked", tc.engine)
		}
		if tc.engine == harness.ShardedEngineName && probe.groups == 0 {
			t.Fatalf("%s: no tick served per-shard counters", tc.engine)
		}
		if tc.traceLimit > 0 && probe.healthy == 0 {
			t.Fatalf("%s: no tick served trace health", tc.engine)
		}
	}
}

// TestRebalancerJournalEndpoint serves an elastic engine's rebalancer
// journal (a journal.Log[shard.RebalanceDecision], not the tuner's)
// through /debug/journal: empty it answers [], and ?n=K tails it.
func TestRebalancerJournalEndpoint(t *testing.T) {
	const threads, opsPer, stepEvery = 4, 200, 50
	env := memsim.NewDet(memsim.DetConfig{Threads: threads, Seed: 1})
	inst := harness.ElasticScenario(40, 1024, 4, 2, 90, 40_000).Setup(env, 1)
	eng, err := harness.BuildEngine(harness.ElasticEngineName, env, inst, harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rb := shard.NewRebalancer(eng.(*shard.Elastic), inst.Elastic.Rebalance)
	s := New()
	s.Attach(Source{Journal: JournalOf(rb.Journal())})
	h := s.Handler()
	for _, ep := range []string{"/debug/journal", "/debug/journal?n=3"} {
		if code, body := get(t, h, ep); code != 200 || strings.TrimSpace(body) != "[]" {
			t.Fatalf("empty %s: code %d body %q", ep, code, body)
		}
	}

	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(uint64(th.ID())+1, 9))
		for i := 1; i <= opsPer; i++ {
			eng.Execute(th, inst.NextOp(rng))
			if th.ID() == 0 && i%stepEvery == 0 {
				rb.Step(th)
			}
		}
	})
	const steps = opsPer / stepEvery
	if rb.Journal().Len() != steps {
		t.Fatalf("journal has %d decisions, want %d", rb.Journal().Len(), steps)
	}
	windows := func(ep string) []int {
		t.Helper()
		code, body := get(t, h, ep)
		var ds []shard.RebalanceDecision
		if err := json.Unmarshal([]byte(body), &ds); err != nil || code != 200 {
			t.Fatalf("%s: code %d err %v body %q", ep, code, err, body)
		}
		ws := []int{}
		for _, d := range ds {
			ws = append(ws, d.Window)
		}
		return ws
	}
	for ep, want := range map[string][]int{
		"/debug/journal":      {1, 2, 3, 4},
		"/debug/journal?n=0":  {},
		"/debug/journal?n=2":  {3, 4},
		"/debug/journal?n=10": {1, 2, 3, 4},
	} {
		if got := windows(ep); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: windows %v, want %v", ep, got, want)
		}
	}
}

// BenchmarkReportRequest measures what the endpoints that read the
// source's report cost per request on a finished point of the open-loop
// figure (the sharded engine at 36 threads and the figure's horizon):
// each /debug/vars and /debug/slo request builds one full report, as
// /debug/metrics does.
//
//	go test -run '^$' -bench ReportRequest -benchmem ./serve
func BenchmarkReportRequest(b *testing.B) {
	srv := New()
	ol := harness.OpenLoopConfig{Rate: 45_000, Observer: srv}
	cfg := harness.Config{Horizon: 200_000, Seed: 1}
	if _, _, err := harness.RunPointOpenLoop(harness.OpenLoopScenario(), harness.ShardedEngineName, 36, cfg, ol); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	for _, ep := range []string{"/debug/vars", "/debug/slo", "/debug/metrics"} {
		b.Run(strings.TrimPrefix(ep, "/debug/"), func(b *testing.B) {
			req := httptest.NewRequest("GET", ep, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				if rw.Code != 200 {
					b.Fatalf("%s: code %d", ep, rw.Code)
				}
			}
		})
	}
}
