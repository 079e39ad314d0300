package harness

import (
	"strings"
	"testing"

	"hcf/internal/memsim"
)

func TestValidateEngineNames(t *testing.T) {
	if err := ValidateEngineNames(KnownEngineNames()); err != nil {
		t.Errorf("known names rejected: %v", err)
	}
	err := ValidateEngineNames([]string{"HCF", "HFC"})
	if err == nil {
		t.Fatal("bogus engine name accepted")
	}
	if !strings.Contains(err.Error(), `"HFC"`) || !strings.Contains(err.Error(), "known engines") {
		t.Errorf("error %q does not name the bad engine and the known list", err)
	}
}

// TestBuildEngineNeedsShardingPlan pins the error for requesting HCF-S on a
// scenario that carries no sharding plan.
func TestBuildEngineNeedsShardingPlan(t *testing.T) {
	sc := HashTableScenario(40, 64)
	cfg := Config{Seed: 1}
	cfg.normalize()
	env := memsim.NewDet(memsim.DetConfig{Threads: 2, Seed: 1})
	inst := sc.Setup(env, 1)
	_, err := BuildEngine(ShardedEngineName, env, inst, cfg)
	if err == nil || !strings.Contains(err.Error(), "sharding plan") {
		t.Errorf("want sharding-plan error, got %v", err)
	}
}

// TestRunPointSharded runs HCF-S through the standard sweep entry point:
// invariants must hold, the phase breakdown must be populated (HCF-S is a
// metered engine), and equal configurations must replay bit-identically.
func TestRunPointSharded(t *testing.T) {
	sc := ShardedHashTableScenario(40, 512, 4, 1, 0)
	cfg := Config{Horizon: 30_000, Seed: 2}
	a, err := RunPoint(sc, ShardedEngineName, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.InvariantViolation != "" {
		t.Fatalf("invariant violated: %s", a.InvariantViolation)
	}
	if a.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if a.PhaseByClass == nil {
		t.Error("PhaseByClass not captured for HCF-S")
	}
	b, err := RunPoint(sc, ShardedEngineName, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Cycles != b.Cycles || a.Metrics != b.Metrics {
		t.Errorf("replay diverged:\na: ops=%d cycles=%d %+v\nb: ops=%d cycles=%d %+v",
			a.Ops, a.Cycles, a.Metrics, b.Ops, b.Cycles, b.Metrics)
	}
}

// TestRunPointShardedHotSkew smokes the shard-skew knob: a heavily skewed
// run must stay invariant-clean and still complete work (the hot shard's
// combiner absorbs the surplus).
func TestRunPointShardedHotSkew(t *testing.T) {
	sc := ShardedHashTableScenario(40, 512, 4, 0, 90)
	if !strings.Contains(sc.Name, "hot=90%") {
		t.Errorf("scenario name %q does not advertise the skew", sc.Name)
	}
	res, err := RunPoint(sc, ShardedEngineName, 8, Config{Horizon: 30_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolation != "" {
		t.Fatalf("invariant violated: %s", res.InvariantViolation)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
}

// TestShardedScenarioOnBaselines runs the sharded scenario through a plain
// (unsharded) engine: the sharding plan is advisory, so every baseline must
// still execute the mixed + cross-shard workload correctly.
func TestShardedScenarioOnBaselines(t *testing.T) {
	sc := ShardedHashTableScenario(40, 256, 2, 2, 0)
	for _, name := range []string{"Lock", "HCF"} {
		res, err := RunPoint(sc, name, 6, Config{Horizon: 20_000, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.InvariantViolation != "" {
			t.Errorf("%s: invariant violated: %s", name, res.InvariantViolation)
		}
	}
}
