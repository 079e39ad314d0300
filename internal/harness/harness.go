// Package harness runs the paper's experiments: it sweeps thread counts and
// synchronization engines over data-structure scenarios in the
// deterministic simulator, collects throughput and behavioural statistics,
// and renders the tables behind every figure of the paper (see figures.go
// for the per-figure registry).
package harness

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/engines"
	"hcf/internal/htm"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/shard"
)

// EngineNames lists all engines in the paper's presentation order.
var EngineNames = []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"}

// ShardedEngineName is the sharded HCF variant; BuildEngine accepts it only
// for scenarios that provide an Instance.Sharding plan.
const ShardedEngineName = "HCF-S"

// ElasticEngineName is the elastic (consistent-hash ring, online
// split/merge) HCF variant; BuildEngine accepts it only for scenarios
// that provide an Instance.Elastic plan.
const ElasticEngineName = "HCF-E"

// KnownEngineNames lists every engine BuildEngine accepts: the paper's six
// plus the sharded variant.
func KnownEngineNames() []string {
	return append(append([]string(nil), EngineNames...), ShardedEngineName, ElasticEngineName)
}

// ValidateEngineNames rejects names BuildEngine would not accept, so CLIs
// can fail fast (before running part of a sweep) with the known set.
func ValidateEngineNames(names []string) error {
	known := KnownEngineNames()
	for _, name := range names {
		ok := false
		for _, k := range known {
			if name == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("harness: unknown engine %q (known engines: %s)",
				name, strings.Join(known, ", "))
		}
	}
	return nil
}

// Scenario couples a data structure with a workload.
type Scenario struct {
	// Name labels the scenario in output.
	Name string
	// Setup builds and prefills the data structure in env and returns the
	// scenario instance. It runs on the bootstrap thread.
	Setup func(env memsim.Env, seed uint64) Instance
}

// Instance is one constructed data structure plus its engine plumbing.
type Instance struct {
	// Policies is the HCF configuration for this structure.
	Policies []core.Policy
	// ClassNames labels the operation classes in metrics output; nil
	// falls back to "class0".."classN-1".
	ClassNames []string
	// HoldSelectionLock selects the specialized HCF variant (§2.4).
	HoldSelectionLock bool
	// Combine is the combining function for the FC / TLE+FC baselines.
	Combine engine.CombineFunc
	// NextOp draws the next operation using a per-thread rng. Called only
	// from inside the environment's Run (one virtual thread at a time).
	NextOp func(r *rand.Rand) engine.Op
	// NextOpAt, when non-nil, draws time-aware operations (drifting
	// workloads). Runners that know the virtual arrival time prefer it
	// over NextOp; everything else falls back to NextOp.
	NextOpAt func(now int64, r *rand.Rand) engine.Op
	// Check optionally validates structural invariants after a run,
	// returning a description of the first violation or "".
	Check func(ctx memsim.Ctx) string
	// Sharding, when non-nil, lets the scenario run under the sharded HCF
	// engine ("HCF-S"): the structure is partitioned into Shards pieces and
	// each keyed operation runs on the piece its key's ring owner names.
	Sharding *Sharding
	// Elastic, when non-nil, lets the scenario run under the elastic
	// HCF engine ("HCF-E"): a consistent-hash ring routes keyed
	// operations and shards split/merge online.
	Elastic *ElasticPlan
}

// Sharding is a scenario's plan for the sharded HCF engine: a Key
// extractor over a consistent-hash ring (see shard.Config).
type Sharding struct {
	// Shards is the number of per-shard frameworks.
	Shards int
	// Key extracts the routing key for ring routing; see shard.KeyFunc.
	Key shard.KeyFunc
	// Ring overrides the topology used with Key (nil = uniform).
	Ring *route.Ring
}

// ElasticPlan is a scenario's plan for the elastic HCF engine: the
// structure is provisioned as MaxShards pieces of which Initial are
// active, keyed operations are bound to their owning piece at apply
// time, and Migrate moves keys on split/merge.
type ElasticPlan struct {
	// MaxShards is the number of provisioned frameworks.
	MaxShards int
	// Initial is the number of initially active shards (default 1).
	Initial int
	// Slots is the ring's virtual-node count (0 = route.DefaultSlots).
	Slots int
	// Key extracts an operation's routing key; see shard.KeyFunc.
	Key shard.KeyFunc
	// Bind attaches a keyed op to shard si's structure.
	Bind func(op engine.Op, si int) engine.Op
	// Migrate moves re-owned keys during Split/Merge.
	Migrate shard.MigrateFunc
	// Rebalance tunes the hot-shard feedback loop (zero = defaults).
	Rebalance shard.RebalanceConfig
}

// Config tunes a sweep.
type Config struct {
	// Horizon is the virtual-cycle duration of each measurement.
	Horizon int64
	// Seed feeds all generators; equal seeds give identical runs.
	Seed uint64
	// Cost is the simulated machine; zero fields take defaults.
	Cost memsim.CostParams
	// Trials is the speculation budget of the baseline engines (default
	// 10, the paper's budget).
	Trials int
	// HTM configures the transactional engine for all engines.
	HTM htm.Config
	// Parallel bounds how many sweep points RunSweep measures concurrently
	// on the host: 0 uses all host cores (GOMAXPROCS), 1 forces a serial
	// sweep. Each point owns an independent DetEnv, so parallelism changes
	// only host wall-clock time — results are identical, in identical
	// order, at any setting.
	Parallel int
	// CapacityHint pre-sizes each point's simulated arena (in words); see
	// memsim.DetConfig.CapacityHint. Zero grows on demand.
	CapacityHint int
}

func (c *Config) normalize() {
	if c.Horizon <= 0 {
		c.Horizon = 200_000
	}
	if c.Trials <= 0 {
		c.Trials = 10
	}
	if c.HTM.NoisePPMPerLine == 0 {
		c.HTM.NoisePPMPerLine = 500 // real HTM aborts sporadically
	}
	// Cost is normalized by memsim.NewDet.
}

// Result is one (scenario, engine, threads) measurement.
type Result struct {
	Scenario string
	Engine   string
	Threads  int
	// Ops completed within the horizon across all threads.
	Ops uint64
	// Cycles is the maximum per-thread virtual time consumed.
	Cycles int64
	// Throughput in operations per million cycles.
	Throughput float64
	// Metrics aggregates engine counters.
	Metrics engine.Metrics
	// Mem aggregates the worker threads' memory counters.
	Mem memsim.ThreadStats
	// PhaseByClass is the per-class phase breakdown (HCF engines only).
	PhaseByClass [][core.NumPhases]uint64
	// InvariantViolation is non-empty if the scenario's check failed.
	InvariantViolation string
}

// BuildEngine constructs the named engine over env for inst.
func BuildEngine(name string, env memsim.Env, inst Instance, cfg Config) (engine.Engine, error) {
	opts := engines.Options{
		HTM:     cfg.HTM,
		Trials:  cfg.Trials,
		Combine: inst.Combine,
	}
	switch name {
	case "Lock":
		return engines.NewLock(env, opts), nil
	case "TLE":
		return engines.NewTLE(env, opts), nil
	case "FC":
		return engines.NewFC(env, opts), nil
	case "SCM":
		return engines.NewSCM(env, opts), nil
	case "TLE+FC":
		return engines.NewTLEFC(env, opts), nil
	case "HCF":
		return core.New(env, core.Config{
			Policies:          inst.Policies,
			HoldSelectionLock: inst.HoldSelectionLock,
			HTM:               cfg.HTM,
		})
	case ShardedEngineName:
		if inst.Sharding == nil {
			return nil, fmt.Errorf("harness: engine %q needs a scenario with a sharding plan (Instance.Sharding is nil)", name)
		}
		return shard.New(env, shard.Config{
			Shards:            inst.Sharding.Shards,
			Key:               inst.Sharding.Key,
			Ring:              inst.Sharding.Ring,
			Policies:          inst.Policies,
			HoldSelectionLock: inst.HoldSelectionLock,
			HTM:               cfg.HTM,
		})
	case ElasticEngineName:
		if inst.Elastic == nil {
			return nil, fmt.Errorf("harness: engine %q needs a scenario with an elastic sharding plan (Instance.Elastic is nil)", name)
		}
		return shard.NewElastic(env, shard.ElasticConfig{
			MaxShards:         inst.Elastic.MaxShards,
			Initial:           inst.Elastic.Initial,
			Slots:             inst.Elastic.Slots,
			Key:               inst.Elastic.Key,
			Bind:              inst.Elastic.Bind,
			Migrate:           inst.Elastic.Migrate,
			Policies:          inst.Policies,
			HoldSelectionLock: inst.HoldSelectionLock,
			HTM:               cfg.HTM,
		})
	default:
		return nil, fmt.Errorf("harness: unknown engine %q (known engines: %s)",
			name, strings.Join(KnownEngineNames(), ", "))
	}
}

// RunPoint measures one (scenario, engine, threads) configuration in a
// fresh deterministic environment.
func RunPoint(sc Scenario, engineName string, threads int, cfg Config) (Result, error) {
	return RunPointExplored(sc, engineName, threads, cfg, memsim.ExploreConfig{})
}

// RunPointExplored is RunPoint under adversarial schedule exploration: the
// environment perturbs the min-clock schedule per ex (randomized thread
// priorities plus bounded forced preemptions; see memsim.ExploreConfig).
// A zero ex is exactly RunPoint — the scheduler takes its unexplored fast
// path, and results are bit-identical to the golden fixtures (pinned by
// TestExploredZeroConfigMatchesRunPoint and the Golden tests). A non-zero
// ex measures a deliberately unfair schedule: use it to validate invariants
// under hostile interleavings, not to compare throughput.
func RunPointExplored(sc Scenario, engineName string, threads int, cfg Config, ex memsim.ExploreConfig) (Result, error) {
	cfg.normalize()
	env := memsim.NewDet(memsim.DetConfig{
		Threads:      threads,
		Cost:         cfg.Cost,
		CapacityHint: cfg.CapacityHint,
		Explore:      ex,
	})
	inst := sc.Setup(env, cfg.Seed)
	eng, err := BuildEngine(engineName, env, inst, cfg)
	if err != nil {
		return Result{}, err
	}
	env.ResetStats() // exclude prefill from measurements
	eng.ResetMetrics()
	opWork := env.Cost().OpWork // per-op application logic outside the DS
	opsByThread := make([]uint64, threads)
	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(cfg.Seed^0x9E3779B9, uint64(th.ID())+1))
		for th.Now() < cfg.Horizon {
			th.Work(opWork)
			eng.Execute(th, inst.NextOp(rng))
			opsByThread[th.ID()]++
		}
	})
	res := Result{
		Scenario: sc.Name,
		Engine:   engineName,
		Threads:  threads,
		Metrics:  eng.Metrics(),
	}
	for t := 0; t < threads; t++ {
		res.Ops += opsByThread[t]
		if now := env.Now(t); now > res.Cycles {
			res.Cycles = now
		}
		res.Mem.Merge(env.Stats(t))
	}
	if res.Cycles > 0 {
		res.Throughput = float64(res.Ops) * 1e6 / float64(res.Cycles)
	}
	if hcf, ok := eng.(interface {
		PhaseBreakdown() [][core.NumPhases]uint64
	}); ok {
		res.PhaseByClass = hcf.PhaseBreakdown()
	}
	if inst.Check != nil {
		res.InvariantViolation = inst.Check(env.Boot())
	}
	return res, nil
}

// RunSweep measures every engine at every thread count. Points are measured
// concurrently across host cores (bounded by cfg.Parallel) — each point
// builds its own deterministic environment, engine and scenario instance, so
// measurements do not interact; results are returned in the same
// deterministic (threads-major, engine-minor) order as a serial sweep.
func RunSweep(sc Scenario, engineNames []string, threads []int, cfg Config) ([]Result, error) {
	type point struct {
		threads int
		name    string
	}
	pts := make([]point, 0, len(engineNames)*len(threads))
	for _, t := range threads {
		for _, name := range engineNames {
			pts = append(pts, point{threads: t, name: name})
		}
	}
	results := make([]Result, len(pts))
	err := forEachPoint(len(pts), cfg.Parallel, func(i int) (err error) {
		results[i], err = RunPoint(sc, pts[i].name, pts[i].threads, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// forEachPoint runs run(0), ..., run(n-1) on up to par host goroutines
// (0 = all host cores, 1 = serial, in index order) and returns the
// lowest-index error; a goroutine stops at its first error.
// Each point must own its state, so the order points finish in cannot
// show in the results.
func forEachPoint(n, par int, run func(i int) error) error {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if errs[i] = run(i); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
