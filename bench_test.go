// Benchmarks regenerating the paper's figures (deterministic simulator,
// virtual-cycle throughput reported as the custom metric "ops/Mcycle").
//
// Full-scale reproductions with the paper's exact parameters are run by
// cmd/hcfbench; these benches use reduced horizons so `go test -bench=.`
// stays fast while still exhibiting every figure's shape.
package hcf_test

import (
	"fmt"
	"testing"

	"hcf/internal/harness"
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
