package harness

import (
	"reflect"
	"testing"

	"hcf/internal/memsim"
)

// TestExploredZeroConfigMatchesRunPoint pins that RunPointWith with a zero
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
		zero, err := RunPointWith(sc, name, 4, cfg, Probes{Explore: memsim.ExploreConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, zero.Result) {
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
		a, err := RunPointWith(sc, name, 4, cfg, Probes{Explore: ex})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunPointWith(sc, name, 4, cfg, Probes{Explore: ex})
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
		r, err := RunPointWith(sc, "HCF", 4, cfg, Probes{Explore: ex})
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
