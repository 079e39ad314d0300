package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"hcf/internal/shard"
)

func TestElasticFigureRegistered(t *testing.T) {
	f, err := FigureByID("elastic")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Engines) != 1 || f.Engines[0] != ElasticEngineName {
		t.Fatalf("elastic figure engines = %v, want [%s]", f.Engines, ElasticEngineName)
	}
	if f.Scenario.Name == "" || !strings.Contains(f.Scenario.Name, "elastic") {
		t.Fatalf("unexpected scenario name %q", f.Scenario.Name)
	}
}

// TestElasticFigureHeals runs the full checked-in figure and requires
// the healing story end to end: the frozen topology degrades and stays
// degraded, the rebalancer splits, the window verdict flips back, and
// post-heal throughput clears the gate against the balanced run.
func TestElasticFigureHeals(t *testing.T) {
	rep, err := RunElasticFigure(36, Config{Seed: 1}, ElasticRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	byMode := map[string]ElasticPoint{}
	for _, p := range rep.Points {
		byMode[p.Mode] = p
	}
	if h := byMode["static"].Healed; h {
		t.Error("static topology should not heal")
	}
	el := byMode["elastic"]
	if el.Topology.Splits < 2 {
		t.Errorf("expected one split per drift phase, got %d", el.Topology.Splits)
	}
	if el.Topology.Merges != 0 {
		t.Errorf("unexpected merges: %d", el.Topology.Merges)
	}
	if len(el.Decisions) == 0 {
		t.Error("elastic point carries no rebalancer journal")
	}
	if el.Topology.Ring.Active <= ElasticInitialShards {
		t.Errorf("ring never grew: %d active", el.Topology.Ring.Active)
	}
	// The journal must hold one entry per completed window step, each
	// with full evidence.
	for _, d := range el.Decisions {
		if len(d.WindowOps) != ElasticMaxShards {
			t.Fatalf("decision window_ops has %d shards, want %d", len(d.WindowOps), ElasticMaxShards)
		}
	}
}

// TestElasticPointDeterministic re-runs one mode and requires
// byte-identical JSON — the figure is a replayable artifact.
func TestElasticPointDeterministic(t *testing.T) {
	const horizon = 200_000
	sc := ElasticScenario(40, 1024, 4, 2, 90, horizon)
	run := func() []byte {
		p, err := RunPointElastic(sc, "elastic", true, 8, Config{Seed: 3, Horizon: horizon}, ElasticRunConfig{Rate: 8000})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("elastic point not deterministic:\n%s\n%s", a, b)
	}
}

func TestElasticJSONLRoundTrip(t *testing.T) {
	const horizon = 200_000
	sc := ElasticScenario(40, 1024, 4, 2, 0, horizon)
	p, err := RunPointElastic(sc, "balanced", false, 4, Config{Seed: 5, Horizon: horizon}, ElasticRunConfig{Rate: 4000})
	if err != nil {
		t.Fatal(err)
	}
	rep := &ElasticReport{
		Figure: "elastic", Scenario: sc.Name, Threads: 4, Seed: 5,
		Horizon: horizon, Rate: 4000, Window: horizon / 16,
		SLOThreshold: DefaultOpenLoopSLOThreshold, Gate: 0.8,
		Points:       []ElasticPoint{p},
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back := &ElasticReport{}
	if err := back.Decode(data); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 1 || back.Points[0].Completed != p.Completed ||
		back.Points[0].Mode != "balanced" || back.Rate != 4000 {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
	if rep.Text() == "" || len(rep.Results()) != 1 {
		t.Fatal("renderers returned nothing")
	}
}

// TestCheckElasticGateSemantics exercises the gate's failure branches
// on synthetic reports.
func TestCheckElasticGateSemantics(t *testing.T) {
	mk := func() *ElasticReport {
		topo := &shard.Topology{Splits: 2}
		return &ElasticReport{
			Gate: 0.8,
			Points: []ElasticPoint{
				{Mode: "balanced", PostThroughput: 1000},
				{Mode: "static", BadWindows: 5},
				{Mode: "elastic", BadWindows: 2, Healed: true, PostThroughput: 900, Topology: topo},
			},
		}
	}
	if err := mk().Check(); err != nil {
		t.Fatalf("healthy report failed gate: %v", err)
	}

	r := mk()
	r.Points = r.Points[:2]
	if err := r.Check(); err == nil {
		t.Error("missing mode passed gate")
	}

	r = mk()
	r.Points[1].BadWindows = 0
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "never degraded") {
		t.Errorf("undegraded static should fail gate, got %v", err)
	}

	r = mk()
	r.Points[2].Topology.Splits = 0
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "never split") {
		t.Errorf("splitless elastic should fail gate, got %v", err)
	}

	r = mk()
	r.Points[2].Healed = false
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "flipped back") {
		t.Errorf("unhealed elastic should fail gate, got %v", err)
	}

	r = mk()
	r.Points[2].PostThroughput = 700
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "post-heal") {
		t.Errorf("slow elastic should fail gate, got %v", err)
	}

	r = mk()
	r.Points[0].InvariantViolation = "boom"
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "invariant") {
		t.Errorf("invariant violation should fail gate, got %v", err)
	}
}
