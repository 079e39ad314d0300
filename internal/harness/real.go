package harness

import (
	"math/rand/v2"

	"hcf/internal/memsim"
)

// RunPointReal runs one (scenario, engine, threads) configuration on the
// real-concurrency backend: actual goroutines and atomics, each thread
// executing opsPerThread operations. It exists to check engines under real
// concurrency (invariants, and data races under -race), not to time them,
// so the Result carries Scenario, Engine, Threads, Ops and
// InvariantViolation only.
func RunPointReal(sc Scenario, engineName string, threads, opsPerThread int, cfg Config) (Result, error) {
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
