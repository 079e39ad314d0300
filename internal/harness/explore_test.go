package harness

import (
	"reflect"
	"strings"
	"testing"

	"hcf/internal/memsim"
)

// runExploredPoint is RunPoint on a min-clock schedule that ex perturbs
// (randomized thread priorities plus bounded forced preemptions; see
// memsim.ExploreConfig). A non-zero ex measures a deliberately unfair
// schedule: it validates invariants under hostile interleavings, it does
// not compare throughput.
func runExploredPoint(sc Scenario, engineName string, threads int, cfg Config, ex memsim.ExploreConfig) (Result, error) {
	cfg.normalize()
	env := memsim.NewDet(memsim.DetConfig{
		Threads:      threads,
		Cost:         cfg.Cost,
		CapacityHint: cfg.CapacityHint,
		Explore:      ex,
	})
	pt, err := runPoint(env, sc, engineName, cfg, Probes{})
	return pt.Result, err
}

// TestExploredZeroConfigMatchesRunPoint pins that a run with a zero
// ExploreConfig IS RunPoint: same environment construction, same
// scheduler fast path, bit-identical Result. The golden JSONL fixtures
// (perf_test.go) pin the same property against recordings made before the
// exploration layer existed.
func TestExploredZeroConfigMatchesRunPoint(t *testing.T) {
	sc := HashTableScenario(40, 256)
	cfg := Config{Horizon: 20_000, Seed: 9}
	for _, name := range EngineNames {
		base, err := RunPoint(sc, name, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		zero, err := runExploredPoint(sc, name, 4, cfg, memsim.ExploreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, zero) {
			t.Errorf("%s: zero ExploreConfig diverged from RunPoint:\n%+v\nvs\n%+v", name, base, zero)
		}
	}
}

// TestExploredRunDeterministicPerSeed pins the replay guarantee at the
// harness level: the same (config, exploration seed) must reproduce the
// full Result — ops, cycles, metrics, phase breakdowns — exactly.
func TestExploredRunDeterministicPerSeed(t *testing.T) {
	sc := HashTableScenario(40, 256)
	cfg := Config{Horizon: 20_000, Seed: 9}
	ex := memsim.ExploreConfig{Seed: 31, PreemptBudget: 48, JitterClass: 2}
	for _, name := range []string{"FC", "HCF"} {
		a, err := runExploredPoint(sc, name, 4, cfg, ex)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runExploredPoint(sc, name, 4, cfg, ex)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: explored replay diverged:\n%+v\nvs\n%+v", name, a, b)
		}
	}
}

// TestExploredRunPerturbsAndStaysSound checks that exploration actually
// changes measured behaviour for at least one seed (otherwise the layer
// tests nothing) while every explored run still passes the scenario's
// structural invariant check and completes a sane number of operations.
func TestExploredRunPerturbsAndStaysSound(t *testing.T) {
	sc := HashTableScenario(40, 256)
	cfg := Config{Horizon: 20_000, Seed: 9}
	base, err := RunPoint(sc, "HCF", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := false
	for seed := uint64(0); seed < 6; seed++ {
		ex := memsim.ExploreConfig{Seed: seed, PreemptBudget: 48, JitterClass: 3}
		r, err := runExploredPoint(sc, "HCF", 4, cfg, ex)
		if err != nil {
			t.Fatal(err)
		}
		if r.InvariantViolation != "" {
			t.Fatalf("seed %d: invariant violated under exploration: %s", seed, r.InvariantViolation)
		}
		if r.Ops == 0 {
			t.Fatalf("seed %d: explored run completed no operations", seed)
		}
		if r.Ops != base.Ops || r.Cycles != base.Cycles {
			perturbed = true
		}
	}
	if !perturbed {
		t.Error("no exploration seed perturbed the measurement")
	}
}

// plan returns the explore plan for one registry scenario.
func plan(t *testing.T, name string, engines ...string) []ExploreCase {
	t.Helper()
	p, err := PlanExplore(ExploreScenarios(), []string{name}, engines)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sweepClean runs an explore sweep and fails the test on any witness
// failure.
func sweepClean(t *testing.T, p []ExploreCase, threads, seeds int) {
	t.Helper()
	ExploreSweep(p, threads, 0, seeds, 0, func(c ExploreCase, seed uint64, err error) {
		t.Errorf("engine %s, scenario %s, seed %d: %v", c.Engine, c.Name, seed, err)
	})
}

// replayIdentical runs one combination twice and fails unless both runs
// pass and produce the same non-empty artifact.
func replayIdentical(t *testing.T, c ExploreCase, threads int, seed uint64) string {
	t.Helper()
	a, err := RunExplored(c.Scenario, c.Engine, threads, seed)
	if err != nil {
		t.Fatalf("%s/%s seed %d: %v", c.Name, c.Engine, seed, err)
	}
	b, err := RunExplored(c.Scenario, c.Engine, threads, seed)
	if err != nil {
		t.Fatalf("%s/%s seed %d (replay): %v", c.Name, c.Engine, seed, err)
	}
	if a == "" || a != b {
		t.Fatalf("%s/%s seed %d: replay artifact diverged;\nfirst:\n%s\nsecond:\n%s", c.Name, c.Engine, seed, a, b)
	}
	return a
}

// TestExploredArtifactByteIdentical pins that replaying any (scenario,
// engine, seed) combination twice yields byte-identical witness
// recordings and flight-recorder dumps: the property that makes every
// sweep failure exactly reproducible from its printed repro line.
func TestExploredArtifactByteIdentical(t *testing.T) {
	for _, name := range []string{"counter", "hashtable", "avl"} {
		for seed := uint64(0); seed < 3; seed++ {
			if a := replayIdentical(t, plan(t, name, "HCF")[0], 5, seed); !strings.Contains(a, "-- flight --") {
				t.Fatalf("%s seed %d: artifact lacks the flight dump:\n%s", name, seed, a)
			}
		}
	}
}

// TestElasticArtifactByteIdentical extends the byte-identity pin to the
// resharding scenario: splits and merges injected mid-schedule must not
// break exact replay.
func TestElasticArtifactByteIdentical(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		replayIdentical(t, plan(t, "elastic")[0], 4, seed)
	}
}

// TestExploreCounterScenario runs the counter, whose combiner applies a
// whole batch with one load and one store, under two engines.
func TestExploreCounterScenario(t *testing.T) {
	sweepClean(t, plan(t, "counter", "HCF", "FC"), 4, 2)
}

// TestExploreShardedScenario runs the sharded workload under a
// single-lock engine, plain HCF and the sharded HCF variant, whose
// combiners run concurrently on different shards.
func TestExploreShardedScenario(t *testing.T) {
	sweepClean(t, plan(t, "sharded", "Lock", "HCF", ShardedEngineName), 4, 3)
}

// TestExploreElasticScenario runs the live-topology workload: thread 0
// splits a shard a third of the way through its operations and merges
// one back two thirds through, racing the witnessed traffic, and the
// witness must hold across both topology changes.
func TestExploreElasticScenario(t *testing.T) {
	sweepClean(t, plan(t, "elastic"), 4, 4)
}

// TestExploreShardedNeedsPlan pins that HCF-S is refused for a scenario
// without a sharding plan: by PlanExplore before anything runs, and by
// BuildEngine for a caller that skips the plan.
func TestExploreShardedNeedsPlan(t *testing.T) {
	_, err := PlanExplore(ExploreScenarios(), []string{"hashtable"}, []string{ShardedEngineName})
	if err == nil || !strings.Contains(err.Error(), "cannot run scenario hashtable") {
		t.Errorf("HCF-S over the hashtable scenario planned: %v", err)
	}
	_, err = RunExplored(plan(t, "hashtable")[0].Scenario, ShardedEngineName, 2, 0)
	if err == nil || !strings.Contains(err.Error(), "sharded scenario") {
		t.Errorf("HCF-S built over an unsharded scenario: %v", err)
	}
}

// TestExploreElasticNeedsPlan is TestExploreShardedNeedsPlan for HCF-E,
// and pins that the elastic scenario, whose operations are submitted
// unbound, is refused to every other engine.
func TestExploreElasticNeedsPlan(t *testing.T) {
	_, err := PlanExplore(ExploreScenarios(), []string{"sharded"}, []string{ElasticEngineName})
	if err == nil || !strings.Contains(err.Error(), "cannot run scenario sharded") {
		t.Errorf("HCF-E over the sharded scenario planned: %v", err)
	}
	_, err = RunExplored(plan(t, "sharded")[0].Scenario, ElasticEngineName, 2, 0)
	if err == nil || !strings.Contains(err.Error(), "elastic scenario") {
		t.Errorf("HCF-E built over a non-elastic scenario: %v", err)
	}
	_, err = PlanExplore(ExploreScenarios(), []string{"elastic"}, []string{"HCF"})
	if err == nil || !strings.Contains(err.Error(), "cannot run scenario elastic") {
		t.Errorf("HCF over the elastic scenario planned: %v", err)
	}
}

// TestPlanExplore pins the plan: every scenario by default, each with its
// own engines; names and engines in the order given; and one error
// naming every impossible request.
func TestPlanExplore(t *testing.T) {
	render := func(p []ExploreCase) string {
		var s []string
		for _, c := range p {
			s = append(s, c.Name+"/"+c.Engine)
		}
		return strings.Join(s, " ")
	}
	all, err := PlanExplore(ExploreScenarios(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range []string{"counter", "hashtable", "avl", "sharded"} {
		for _, e := range EngineNames {
			want = append(want, name+"/"+e)
		}
	}
	want = append(want, "sharded/HCF-S", "elastic/HCF-E")
	if got := render(all); got != strings.Join(want, " ") {
		t.Errorf("default plan:\n%s\nwant\n%s", got, strings.Join(want, " "))
	}
	two, err := PlanExplore(ExploreScenarios(), []string{"avl", "counter"}, []string{"HCF", "Lock"})
	if got := render(two); err != nil || got != "avl/HCF avl/Lock counter/HCF counter/Lock" {
		t.Errorf("avl,counter x HCF,Lock planned %s, %v", got, err)
	}
	_, err = PlanExplore(ExploreScenarios(), []string{"nope", "hashtable", "elastic"}, []string{"HCF-E"})
	if err == nil {
		t.Fatal("impossible plan accepted")
	}
	for _, part := range []string{`unknown scenario "nope"`, "HCF-E cannot run scenario hashtable"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q lacks %q", err, part)
		}
	}
	if strings.Contains(err.Error(), "scenario elastic") {
		t.Errorf("error %q names a possible combination", err)
	}
}
