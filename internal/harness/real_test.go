package harness

import (
	"math/rand/v2"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/hashtable"
	"hcf/internal/witness"
)

// runPointReal runs one (scenario, engine, threads) configuration on the
// real-concurrency backend: actual goroutines and atomics, each thread
// executing opsPerThread operations. It exists to check engines under real
// concurrency (invariants, and data races under -race), not to time them,
// so the Result carries Scenario, Engine, Threads, Ops and
// InvariantViolation only.
func runPointReal(sc Scenario, engineName string, threads, opsPerThread int, cfg Config) (Result, error) {
	cfg.normalize()
	env := memsim.NewReal(memsim.RealConfig{Threads: threads})
	inst := sc.Setup(env, cfg.Seed)
	eng, err := BuildEngine(engineName, env, inst, cfg)
	if err != nil {
		return Result{}, err
	}
	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(cfg.Seed^0xFEED, uint64(th.ID())+1))
		for i := 0; i < opsPerThread; i++ {
			eng.Execute(th, inst.NextOp(rng))
		}
	})
	res := Result{
		Scenario: sc.Name,
		Engine:   engineName,
		Threads:  threads,
		Ops:      uint64(threads * opsPerThread),
	}
	if inst.Check != nil {
		res.InvariantViolation = inst.Check(env.Boot())
	}
	return res, nil
}

// TestRunPointRealAllEngines runs every known engine — the paper's six plus
// the sharded variant — on the real-concurrency backend and checks the
// structural invariants afterwards. Under -race this doubles as a data-race
// hunt over every engine's real-backend code path.
func TestRunPointRealAllEngines(t *testing.T) {
	sc := ShardedHashTableScenario(40, 256, 2, 2, 10)
	for _, name := range KnownEngineNames() {
		res, err := runPointReal(sc, name, 4, 300, Config{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.InvariantViolation != "" {
			t.Errorf("%s: invariant violated: %s", name, res.InvariantViolation)
		}
		if res.Ops != 4*300 {
			t.Errorf("%s: completed %d ops, want %d", name, res.Ops, 4*300)
		}
	}
}

// TestRunPointRealWitnessed is the end-to-end linearizability check on the
// real-concurrency backend: every engine — including HCF-S, whose combiners
// run concurrently on different shards — must produce a serialization
// witness whose sequential replay reproduces every returned result.
func TestRunPointRealWitnessed(t *testing.T) {
	const (
		threads   = 4
		perThread = 250
		seed      = 11
		buckets   = 48
	)
	sc := ShardedHashTableScenario(40, buckets, 3, 4, 0)
	for _, name := range KnownEngineNames() {
		env := memsim.NewReal(memsim.RealConfig{Threads: threads})
		inst := sc.Setup(env, seed)
		// Seed the model by replaying the scenario's prefill stream (Setup
		// inserts buckets/2 uniform keys with value == key from this PCG).
		model := hashtable.Model{}
		pre := rand.New(rand.NewPCG(seed, 0xF17))
		for i := 0; i < buckets/2; i++ {
			k := pre.Uint64N(buckets)
			model[k] = k
		}
		cfg := Config{Seed: seed}
		cfg.normalize()
		eng, err := BuildEngine(name, env, inst, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := &witness.Recorder{}
		eng.(engine.WitnessedEngine).SetWitness(rec.Func())
		env.Run(func(th *memsim.Thread) {
			rng := rand.New(rand.NewPCG(cfg.Seed^0xFEED, uint64(th.ID())+1))
			for i := 0; i < perThread; i++ {
				eng.Execute(th, inst.NextOp(rng))
			}
		})
		if err := witness.Check(rec, model, threads*perThread, hashtable.Rank); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if inst.Check != nil {
			if s := inst.Check(env.Boot()); s != "" {
				t.Errorf("%s: invariant violated: %s", name, s)
			}
		}
	}
}
