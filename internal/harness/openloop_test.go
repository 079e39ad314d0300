package harness

import (
	"bytes"
	"strings"
	"testing"

	"hcf/internal/metrics"
)

// Small sweep configuration used across the open-loop tests: two engines,
// one below-knee and one past-knee rate for the Lock engine.
func olTestConfig() (Config, OpenLoopConfig, []float64, []string) {
	cfg := Config{Horizon: 60_000, Seed: 1}
	ol := OpenLoopConfig{}
	return cfg, ol, []float64{1500, 12000}, []string{"Lock", "HCF"}
}

func TestOpenLoopPointBasics(t *testing.T) {
	cfg, ol, _, _ := olTestConfig()
	ol.Rate = 4000
	p, rep, err := RunPointOpenLoop(OpenLoopScenario(), "HCF", 12, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	if p.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	if p.Completed != p.Arrivals {
		t.Fatalf("completed %d != arrivals %d (the run must drain its queue)", p.Completed, p.Arrivals)
	}
	if p.Sojourn.Count != p.Arrivals {
		t.Fatalf("sojourn count %d != arrivals %d", p.Sojourn.Count, p.Arrivals)
	}
	if p.Sojourn.P50 == 0 || p.Sojourn.Max < p.Sojourn.P999 || p.Sojourn.P999 < p.Sojourn.P99 {
		t.Fatalf("implausible sojourn stats: %+v", p.Sojourn)
	}
	if p.Makespan < cfg.Horizon/2 {
		t.Fatalf("makespan %d implausibly small for horizon %d", p.Makespan, cfg.Horizon)
	}
	if p.SLO == nil || len(p.SLO.Objectives) == 0 {
		t.Fatal("SLO evaluation missing from point")
	}
	if p.SLOState == "" {
		t.Fatal("SLO state missing")
	}
	if len(p.ByClass) == 0 {
		t.Fatal("per-class sojourn breakdown missing")
	}
	if p.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", p.InvariantViolation)
	}
	if rep == nil || len(rep.Intervals) == 0 {
		t.Fatal("metrics report missing interval series")
	}
	if rep.SLO == nil {
		t.Fatal("metrics report missing SLO snapshot")
	}
}

func TestOpenLoopSaturationShape(t *testing.T) {
	cfg, ol, _, _ := olTestConfig()

	ol.Rate = 1500 // far below Lock's ~5000 ops/Mcycle capacity
	low, _, err := RunPointOpenLoop(OpenLoopScenario(), "Lock", 12, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	ol.Rate = 12000 // far above it
	high, _, err := RunPointOpenLoop(OpenLoopScenario(), "Lock", 12, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	if low.Saturated {
		t.Errorf("below-capacity point marked saturated: %+v", low.Sojourn)
	}
	if !high.Saturated {
		t.Errorf("past-capacity point not marked saturated (makespan %d, horizon %d)", high.Makespan, high.Horizon)
	}
	if high.Sojourn.P99 < 10*low.Sojourn.P99 {
		t.Errorf("saturation did not blow up the tail: low p99 %d, high p99 %d", low.Sojourn.P99, high.Sojourn.P99)
	}
	if high.MaxBacklog <= low.MaxBacklog {
		t.Errorf("saturation did not grow backlog: low %d, high %d", low.MaxBacklog, high.MaxBacklog)
	}
	if high.SLOState != metrics.SLOStatePage {
		t.Errorf("past-knee SLO state = %s, want page", high.SLOState)
	}
	if len(high.SLO.Verdicts) == 0 {
		t.Error("past-knee point has no SLO verdicts")
	}
}

// TestOpenLoopSweepParallelBitIdentical is the determinism gate: the JSONL
// sweep must be byte-identical for a fixed seed whether points run serially
// or concurrently across host cores.
func TestOpenLoopSweepParallelBitIdentical(t *testing.T) {
	cfg, ol, rates, engines := olTestConfig()

	cfg.Parallel = 1
	serial, err := RunOpenLoopSweep(OpenLoopScenario(), engines, rates, 12, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 0 // all host cores
	parallel, err := RunOpenLoopSweep(OpenLoopScenario(), engines, rates, 12, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := serial.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("serial and parallel sweeps differ:\n--- serial ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
}

func TestOpenLoopJSONLRoundTrip(t *testing.T) {
	cfg, ol, rates, engines := olTestConfig()
	rep, err := RunOpenLoopSweep(OpenLoopScenario(), engines, rates, 12, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back := &OpenLoopReport{}
	if err := back.Decode(data); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != rep.Scenario || back.Threads != rep.Threads || back.Seed != rep.Seed {
		t.Fatalf("header round-trip mismatch: %+v vs %+v", back, rep)
	}
	if len(back.Points) != len(rep.Points) {
		t.Fatalf("points round-trip: %d vs %d", len(back.Points), len(rep.Points))
	}
	for i := range back.Points {
		if back.Points[i].Engine != rep.Points[i].Engine ||
			back.Points[i].Rate != rep.Points[i].Rate ||
			back.Points[i].Sojourn.P99 != rep.Points[i].Sojourn.P99 {
			t.Fatalf("point %d round-trip mismatch", i)
		}
	}
	// Verdicts survive the JSONL round trip (acceptance: verdicts present
	// in the output).
	var sawVerdict bool
	for _, p := range back.Points {
		if p.SLO != nil && len(p.SLO.Verdicts) > 0 {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatal("no SLO verdicts in round-tripped sweep (past-knee point should page)")
	}
	if txt := rep.Text(); !strings.Contains(txt, "p9999") || !strings.Contains(txt, "Lock") {
		t.Errorf("Text rendering missing columns:\n%s", txt)
	}
}

func TestOpenLoopBaselineComparison(t *testing.T) {
	cfg, ol, _, _ := olTestConfig()
	rep, err := RunOpenLoopSweep(OpenLoopScenario(), []string{"Lock"}, []float64{1500}, 12, cfg, ol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareRecords(rep, rep); err != nil {
		t.Fatalf("self-comparison must pass: %v", err)
	}
	worse := *rep
	worse.Points = append([]OpenLoopPoint(nil), rep.Points...)
	worse.Points[0].Sojourn.P99 = rep.Points[0].Sojourn.P99 * 2
	if _, err := CompareRecords(&worse, rep); err == nil {
		t.Fatal("2x p99 regression must fail the gate")
	}
	// Points missing from the baseline are not regressions.
	extra := *rep
	extra.Points = append(append([]OpenLoopPoint(nil), rep.Points...), OpenLoopPoint{
		Engine: "HCF", Rate: 9999, Threads: 12,
		Sojourn: SojournStat{P99: 1 << 40},
	})
	if _, err := CompareRecords(&extra, rep); err != nil {
		t.Fatalf("unmatched point must be ignored: %v", err)
	}
	// But a sweep sharing no point with the baseline cannot pass.
	disjoint := *rep
	disjoint.Points = extra.Points[len(rep.Points):]
	if _, err := CompareRecords(&disjoint, rep); err == nil {
		t.Fatal("sweep with no point in common passed the gate")
	}
}

func TestOpenLoopRejectsBadConfig(t *testing.T) {
	cfg, ol, _, _ := olTestConfig()
	if _, _, err := RunPointOpenLoop(OpenLoopScenario(), "Lock", 4, cfg, ol); err == nil {
		t.Fatal("expected error for zero rate")
	}
	ol.Rate = 1000
	if _, err := RunOpenLoopSweep(OpenLoopScenario(), []string{"NoSuchEngine"}, []float64{1000}, 4, cfg, ol); err == nil {
		t.Fatal("expected error for unknown engine")
	}
}

func TestOpenLoopFigureRegistered(t *testing.T) {
	f, err := FigureByID("openloop")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 30_000, Seed: 1}
	f.Threads = []int{8}
	results, err := RunFigure(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(OpenLoopDefaultRates) * len(OpenLoopDefaultEngines)
	if len(results) != want {
		t.Fatalf("figure results = %d, want %d", len(results), want)
	}
	for _, r := range results {
		if !strings.Contains(r.Scenario, "@") {
			t.Fatalf("flattened scenario label missing rate: %q", r.Scenario)
		}
		if r.InvariantViolation != "" {
			t.Fatalf("invariant violation in %s/%s: %s", r.Scenario, r.Engine, r.InvariantViolation)
		}
	}
}
