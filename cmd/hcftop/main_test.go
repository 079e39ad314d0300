package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hcf/internal/harness"
	"hcf/internal/metrics"
	"hcf/internal/route"
	"hcf/internal/shard"
	"hcf/serve"
)

// liveServer builds a serve.Server with a canned source and returns an
// httptest wrapper around its handler.
func liveServer(t *testing.T) *httptest.Server {
	t.Helper()
	rec, err := metrics.New(metrics.Config{Shards: 2, TimeUnit: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec.RecordOp(0, 0, 0, 100)
	}
	rec.RecordOp(1, 0, 0, 90_000)
	tr, err := metrics.NewSLOTracker(rec, metrics.SLOConfig{
		Objectives: []metrics.Objective{{Threshold: 1000, Target: 0.999}},
		FastWindow: 1, SlowWindow: 2, WarnBurn: 1, PageBurn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Step(1000) // the bad op blows the 0.1% budget: state pages immediately
	s := serve.New()
	s.Attach(serve.Source{
		Report: func() *metrics.Report {
			rep := metrics.BuildReport(rec, nil, "hashtable", "HCF-S", 12)
			snap := tr.Snapshot()
			rep.SLO = &snap
			rep.Trace = &metrics.TraceHealth{Starts: 100, Retained: 64, Dropped: 36}
			rep.Totals.ByGroup = []metrics.GroupCounters{
				{Group: "shard0", Ops: 600, Commits: 580, Aborts: 20, CombinerSessions: 40, CombinedOps: 200},
				{Group: "cross", Ops: 12},
			}
			return &rep
		},
		Sojourn: func() []harness.ClassSojourn {
			return []harness.ClassSojourn{
				{Class: "insert", SojournStat: harness.SojournStat{Count: 500, Mean: 310.5, P50: 290, P99: 900, P999: 1800, P9999: 2400, Max: 2500}},
				{Class: "find", SojournStat: harness.SojournStat{Count: 700, Mean: 120.0, P50: 100, P99: 300, P999: 500, P9999: 600, Max: 650}},
			}
		},
		Backlog: func() int64 { return 17 },
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchAndRender(t *testing.T) {
	ts := liveServer(t)
	client := &http.Client{Timeout: time.Second}
	snap, err := fetch(client, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Vars == nil || snap.Vars.Engine != "HCF-S" || snap.Vars.Backlog != 17 {
		t.Fatalf("vars: %+v", snap.Vars)
	}
	if len(snap.Sojourn) != 2 || len(snap.Shards.Counters) != 2 || snap.SLO == nil {
		t.Fatalf("snapshot incomplete: sojourn=%d shards=%d slo=%v",
			len(snap.Sojourn), len(snap.Shards.Counters), snap.SLO != nil)
	}
	out := render(snap)
	for _, want := range []string{
		"engine=HCF-S", "backlog=17", "trace=64/100 dropped=36",
		"p999", "p9999", "insert", "find", "shard0", "cross",
		"SLO:", "PAGE",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFetchToleratesMissingEndpoints(t *testing.T) {
	s := serve.New() // no providers at all
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: time.Second}
	snap, err := fetch(client, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SLO != nil || len(snap.Sojourn) != 0 || len(snap.Shards.Counters) != 0 {
		t.Fatalf("expected empty snapshot, got %+v", snap)
	}
	if out := render(snap); !strings.Contains(out, "hcftop") {
		t.Fatalf("render on empty snapshot:\n%s", out)
	}
}

func TestRunOnce(t *testing.T) {
	ts := liveServer(t)
	var buf strings.Builder
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := run([]string{"-addr", addr, "-once"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "engine=HCF-S") {
		t.Fatalf("run -once output:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "\033[2J") {
		t.Fatal("-once must not emit screen-control sequences")
	}
}

// TestFetchElasticTopology pins the /debug/shards payload with a
// topology alongside the counters, as an elastic engine serves it: the
// dashboard decodes both and renders the topology line.
func TestFetchElasticTopology(t *testing.T) {
	s := serve.New()
	s.Attach(serve.Source{
		Report: func() *metrics.Report {
			return &metrics.Report{
				Scenario: "hashtable-elastic", Engine: "HCF-E", Threads: 12,
				Totals: metrics.Counters{ByGroup: []metrics.GroupCounters{{Group: "shard0", Ops: 600}}},
			}
		},
		Topology: func() *shard.Topology {
			return &shard.Topology{
				Name:        "HCF-E",
				Provisioned: 8,
				Splits:      2,
				MovedKeys:   495,
				Reroutes:    28,
				Ring:        route.Snapshot{Epoch: 2, Slots: 64, Active: 6},
			}
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: time.Second}
	snap, err := fetch(client, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Shards.Topology == nil || snap.Shards.Topology.Splits != 2 || len(snap.Shards.Counters) != 1 {
		t.Fatalf("elastic snapshot: topology=%+v shards=%d", snap.Shards.Topology, len(snap.Shards.Counters))
	}
	out := render(snap)
	for _, want := range []string{
		"topology: epoch=2 active=6/8 splits=2 merges=0 moved=495 reroutes=28",
		"shard0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
