// Benchmarks regenerating the paper's figures (deterministic simulator,
// virtual-cycle throughput reported as the custom metric "ops/Mcycle") plus
// wall-clock micro-benchmarks of the substrate on the real backend.
//
// Full-scale reproductions with the paper's exact parameters are run by
// cmd/hcfbench; these benches use reduced horizons so `go test -bench=.`
// stays fast while still exhibiting every figure's shape.
package hcf_test

import (
	"fmt"
	"testing"

	"hcf"
	"hcf/internal/harness"
	"hcf/internal/htm"
	"hcf/internal/memsim"
)

// benchCfg is the reduced configuration for figure benches.
func benchCfg() harness.Config {
	return harness.Config{Horizon: 40_000, Seed: 1}
}

// runFigurePoint runs one figure data point b.N times and reports its
// virtual-time throughput.
func runFigurePoint(b *testing.B, figID, engine string, threads int) {
	b.Helper()
	fig, err := harness.FigureByID(figID)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	if fig.Cost.Sockets != 0 {
		cfg.Cost = fig.Cost
	}
	var last harness.Result
	for i := 0; i < b.N; i++ {
		last, err = harness.RunPoint(fig.Scenario, engine, threads, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if last.InvariantViolation != "" {
		b.Fatalf("invariants violated: %s", last.InvariantViolation)
	}
	b.ReportMetric(last.Throughput, "ops/Mcycle")
	b.ReportMetric(float64(last.Ops), "ops")
}

// figureBench sweeps a figure's engines at representative thread counts.
func figureBench(b *testing.B, figID string, engines []string, threads []int) {
	b.Helper()
	for _, t := range threads {
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/t=%d", e, t), func(b *testing.B) {
				runFigurePoint(b, figID, e, t)
			})
		}
	}
}

var benchEngines = []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"}

// BenchmarkFig2a: hash table, 100% Find (paper Figure 2(a)).
func BenchmarkFig2a(b *testing.B) { figureBench(b, "2a", benchEngines, []int{1, 18}) }

// BenchmarkFig2b: hash table, 80% Find, 2-socket NUMA (paper Figure 2(b)).
func BenchmarkFig2b(b *testing.B) { figureBench(b, "2b", benchEngines, []int{18, 72}) }

// BenchmarkFig2c: hash table, 40% Find (paper Figure 2(c)).
func BenchmarkFig2c(b *testing.B) { figureBench(b, "2c", benchEngines, []int{18, 36}) }

// BenchmarkFig3: HCF phase breakdown source run (paper Figure 3).
func BenchmarkFig3(b *testing.B) { figureBench(b, "3", []string{"HCF"}, []int{8, 36}) }

// BenchmarkFig4: behavioural statistics run (paper §3.3 statistics).
func BenchmarkFig4(b *testing.B) {
	figureBench(b, "4", []string{"TLE", "FC", "TLE+FC", "HCF"}, []int{18})
}

// BenchmarkFig5a: AVL set, Zipf 0.9, 0% Find (paper Figure 5(a)).
func BenchmarkFig5a(b *testing.B) { figureBench(b, "5a", benchEngines, []int{18, 36}) }

// BenchmarkFig5b: AVL set, Zipf 0.9, 40% Find (paper Figure 5(b)).
func BenchmarkFig5b(b *testing.B) { figureBench(b, "5b", benchEngines, []int{18, 36}) }

// BenchmarkFig5c: AVL set, Zipf 0.9, 80% Find (paper Figure 5(c)).
func BenchmarkFig5c(b *testing.B) { figureBench(b, "5c", benchEngines, []int{18, 36}) }

// BenchmarkAblationAVL: §3.4's HCF variant ablations.
func BenchmarkAblationAVL(b *testing.B) {
	for _, variant := range []struct {
		name string
		v    harness.AVLVariant
	}{{"combining", harness.AVLCombining}, {"nocombine", harness.AVLNoCombine}, {"twoarrays", harness.AVLTwoArrays}} {
		b.Run(variant.name, func(b *testing.B) {
			sc := harness.AVLScenario(0, 1024, 0.9, variant.v)
			var last harness.Result
			var err error
			for i := 0; i < b.N; i++ {
				last, err = harness.RunPoint(sc, "HCF", 18, benchCfg())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput, "ops/Mcycle")
		})
	}
}

// BenchmarkPQueue: the introduction's priority-queue scenario.
func BenchmarkPQueue(b *testing.B) {
	figureBench(b, "pqueue", []string{"TLE", "FC", "HCF"}, []int{8, 27})
}

// BenchmarkStack: §3.1's no-parallelism stack.
func BenchmarkStack(b *testing.B) {
	figureBench(b, "stack", []string{"Lock", "TLE", "FC", "HCF"}, []int{18})
}

// BenchmarkSkipSet: ordered skip-list set under Zipfian skew (§3.1 names
// skip lists among HCF's target structures).
func BenchmarkSkipSet(b *testing.B) {
	figureBench(b, "skipset", []string{"TLE", "FC", "HCF"}, []int{18, 36})
}

// BenchmarkQueue: FIFO queue with per-end combiners.
func BenchmarkQueue(b *testing.B) {
	figureBench(b, "queue", []string{"Lock", "TLE", "FC", "HCF"}, []int{18})
}

// BenchmarkBudgetSweep: sensitivity of HCF to the Insert trial split
// (§3.3's "works reasonably well" claim).
func BenchmarkBudgetSweep(b *testing.B) {
	for _, budget := range [][3]int{{2, 3, 5}, {10, 0, 0}, {0, 0, 10}} {
		b.Run(fmt.Sprintf("p%d-v%d-c%d", budget[0], budget[1], budget[2]), func(b *testing.B) {
			sc := harness.HashTableBudgetScenario(40, 4096, budget[0], budget[1], budget[2])
			var last harness.Result
			var err error
			for i := 0; i < b.N; i++ {
				last, err = harness.RunPoint(sc, "HCF", 18, benchCfg())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput, "ops/Mcycle")
		})
	}
}

// BenchmarkAutotune: the §2.4 future-work policy autotuner on the drifting
// priority-queue workload, tuned vs the best static policy, over the full
// horizon and over the post-drift region.
func BenchmarkAutotune(b *testing.B) {
	var rep *harness.AutotuneReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = harness.RunAutotune(18, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	tuned, best, bestPost := rep.Tuned(), rep.BestStatic(), rep.BestStaticPostDrift()
	if tuned == nil || best == nil || bestPost == nil {
		b.Fatal("autotune report lacks a tuned or static variant")
	}
	b.ReportMetric(tuned.Throughput, "tuned_ops/Mcycle")
	b.ReportMetric(best.Throughput, "best-static_ops/Mcycle")
	b.ReportMetric(tuned.PostDrift, "tuned-post-drift_ops/Mcycle")
	b.ReportMetric(bestPost.PostDrift, "best-static-post-drift_ops/Mcycle")
}

// BenchmarkDeque: §2.4's two-ends deque with the specialized variant.
func BenchmarkDeque(b *testing.B) {
	figureBench(b, "deque", []string{"Lock", "TLE", "FC", "HCF"}, []int{16})
}

// --- Wall-clock substrate micro-benchmarks (real backend) ---

// BenchmarkRealDirectLoad measures a coherent direct load.
func BenchmarkRealDirectLoad(b *testing.B) {
	env := hcf.NewRealEnv(1)
	boot := env.Boot()
	a := env.Alloc(1)
	boot.Store(a, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boot.Load(a)
	}
}

// BenchmarkRealDirectStore measures a coherent direct store (line lock +
// version bump).
func BenchmarkRealDirectStore(b *testing.B) {
	env := hcf.NewRealEnv(1)
	boot := env.Boot()
	a := env.Alloc(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boot.Store(a, uint64(i))
	}
}

// BenchmarkRealTxCommit measures an uncontended read-modify-write
// transaction end to end.
func BenchmarkRealTxCommit(b *testing.B) {
	env := hcf.NewRealEnv(1)
	eng := htm.New(env, htm.Config{})
	boot := env.Boot()
	a := env.Alloc(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _ := eng.Run(boot, func(tx *htm.Tx) {
			tx.Store(a, tx.Load(a)+1)
		})
		if !ok {
			b.Fatal("uncontended tx aborted")
		}
	}
}

// BenchmarkRealTxReadSet measures transactions with growing read sets.
func BenchmarkRealTxReadSet(b *testing.B) {
	for _, lines := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			env := hcf.NewRealEnv(1)
			eng := htm.New(env, htm.Config{})
			boot := env.Boot()
			addrs := make([]hcf.Addr, lines)
			for i := range addrs {
				addrs[i] = env.Alloc(memsim.WordsPerLine)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(boot, func(tx *htm.Tx) {
					for _, a := range addrs {
						tx.Load(a)
					}
				})
			}
		})
	}
}

// BenchmarkRealHCFExecute measures the HCF fast path (TryPrivate commit) on
// the real backend, uncontended.
func BenchmarkRealHCFExecute(b *testing.B) {
	env := hcf.NewRealEnv(1)
	fw, err := hcf.New(env, hcf.Config{Policies: []hcf.Policy{{
		TryPrivateTrials:   2,
		TryVisibleTrials:   3,
		TryCombiningTrials: 5,
	}}})
	if err != nil {
		b.Fatal(err)
	}
	boot := env.Boot()
	a := env.Alloc(1)
	op := benchIncOp{addr: a}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Execute(boot, op)
	}
}

type benchIncOp struct {
	addr hcf.Addr
}

func (o benchIncOp) Apply(ctx hcf.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o benchIncOp) Class() int { return 0 }

// BenchmarkRealContendedCounter compares engines on a hot counter with real
// goroutine concurrency.
func BenchmarkRealContendedCounter(b *testing.B) {
	const threads = 4
	for _, name := range []string{"Lock", "TLE", "HCF"} {
		b.Run(name, func(b *testing.B) {
			env := hcf.NewRealEnv(threads)
			var eng hcf.Engine
			switch name {
			case "Lock":
				eng = hcf.NewLockEngine(env, hcf.BaselineOptions{})
			case "TLE":
				eng = hcf.NewTLE(env, hcf.BaselineOptions{})
			case "HCF":
				fw, err := hcf.New(env, hcf.Config{Policies: []hcf.Policy{{
					TryPrivateTrials:   2,
					TryVisibleTrials:   3,
					TryCombiningTrials: 5,
				}}})
				if err != nil {
					b.Fatal(err)
				}
				eng = fw
			}
			a := env.Alloc(1)
			perThread := b.N/threads + 1
			op := benchIncOp{addr: a}
			b.ResetTimer()
			env.Run(func(th *hcf.Thread) {
				for i := 0; i < perThread; i++ {
					eng.Execute(th, op)
				}
			})
		})
	}
}
