package harness

import (
	"fmt"

	"hcf/internal/memsim"
)

// FigureKind selects how a figure's results are rendered.
type FigureKind int

// Figure kinds.
const (
	// KindThroughput renders throughput vs threads per engine (Figures 2
	// and 5 and the ablation experiments).
	KindThroughput FigureKind = iota
	// KindPhases renders HCF's per-phase completion percentages split by
	// operation class (Figure 3).
	KindPhases
	// KindStats renders combining degree, lock acquisitions per operation
	// and L1 miss rate per engine (the §3.3 performance statistics).
	KindStats
)

// Figure describes one reproducible experiment (see DESIGN.md's
// per-experiment index).
type Figure struct {
	// ID is the CLI handle ("2a", "3", "pqueue", ...).
	ID string
	// Ref cites the paper figure or section being reproduced.
	Ref string
	// Title describes the experiment.
	Title string
	// Expect summarizes the shape the paper reports.
	Expect string
	// Scenario is the workload.
	Scenario Scenario
	// Engines to compare.
	Engines []string
	// Threads to sweep.
	Threads []int
	// Cost overrides the machine model (zero = default one-socket).
	Cost memsim.CostParams
	// Kind selects the rendering.
	Kind FigureKind
}

// Paper parameters (§3.3, §3.4).
const (
	paperBuckets  = 16384 // 16K keys and buckets
	paperAVLRange = 1024  // keys in [0..1023]
	paperTheta    = 0.9
)

func defaultThreads() []int { return []int{1, 2, 4, 8, 12, 18, 24, 30, 36} }

func numaThreads() []int { return []int{1, 4, 9, 18, 27, 36, 54, 72} }

// Figures returns the registry of all reproducible experiments, in the
// order they appear in DESIGN.md.
func Figures() []Figure {
	all := EngineNames
	return []Figure{
		{
			ID: "2a", Ref: "Figure 2(a)",
			Title:    "hash table throughput, 100% Find",
			Expect:   "HCF ≈ TLE ≈ SCM ≈ TLE+FC and all scale; Lock and FC stay flat",
			Scenario: HashTableScenario(100, paperBuckets),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "2b", Ref: "Figure 2(b)",
			Title:    "hash table throughput, 80% Find, two sockets (72 threads)",
			Expect:   "HCF peaks highest and holds; all engines dip when crossing the socket boundary",
			Scenario: HashTableScenario(80, paperBuckets),
			Engines:  all, Threads: numaThreads(),
			Cost: memsim.TwoSocketCostParams(), Kind: KindThroughput,
		},
		{
			ID: "2c", Ref: "Figure 2(c)",
			Title:    "hash table throughput, 40% Find",
			Expect:   "HCF's advantage grows with the update fraction; TLE+FC ≈ TLE",
			Scenario: HashTableScenario(40, paperBuckets),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "3", Ref: "Figure 3",
			Title:    "HCF phase-completion breakdown, hash table at 40% Find",
			Expect:   "Finds/Removes complete in TryPrivate; Inserts shift into the combining phases as threads grow",
			Scenario: HashTableScenario(40, paperBuckets),
			Engines:  []string{"HCF"}, Threads: defaultThreads(), Kind: KindPhases,
		},
		{
			ID: "4", Ref: "§3.3 statistics",
			Title:    "combining degree, lock acquisitions and L1 misses, hash table at 40% Find",
			Expect:   "HCF combining degree ≫ TLE+FC (≈1); HCF lock acquisitions per op ≪ TLE",
			Scenario: HashTableScenario(40, paperBuckets),
			Engines:  []string{"TLE", "FC", "TLE+FC", "HCF"},
			Threads:  []int{8, 18, 36}, Kind: KindStats,
		},
		{
			ID: "5a", Ref: "Figure 5(a)",
			Title:    "AVL set throughput, Zipf θ=0.9, 0% Find",
			Expect:   "HCF wins clearly at the highest update rate",
			Scenario: AVLScenario(0, paperAVLRange, paperTheta, AVLCombining),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "5b", Ref: "Figure 5(b)",
			Title:    "AVL set throughput, Zipf θ=0.9, 40% Find",
			Expect:   "HCF still ahead; gap smaller than at 0% Find",
			Scenario: AVLScenario(40, paperAVLRange, paperTheta, AVLCombining),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "5c", Ref: "Figure 5(c)",
			Title:    "AVL set throughput, Zipf θ=0.9, 80% Find",
			Expect:   "engines converge as conflicts get rare",
			Scenario: AVLScenario(80, paperAVLRange, paperTheta, AVLCombining),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "ablation-avl", Ref: "§3.4 ablations",
			Title:    "AVL HCF variants at 0% Find: combining vs no-combining vs two arrays",
			Expect:   "the main HCF variant (combining + one array) performs best",
			Scenario: AVLScenario(0, paperAVLRange, paperTheta, AVLCombining),
			Engines:  []string{"HCF"}, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "pqueue", Ref: "§1 example",
			Title:    "skip-list priority queue, 50% Insert / 50% RemoveMin",
			Expect:   "HCF preserves throughput at high thread counts where TLE collapses, and beats FC throughout (Inserts stay parallel)",
			Scenario: PQScenario(50, 1<<20, 4096),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "stack", Ref: "§3.1 qualitative",
			Title:    "stack, 50% Push / 50% Pop",
			Expect:   "no parallelism to exploit: TLE loses badly; combining engines (FC, HCF) are not expected to be beaten by speculation",
			Scenario: StackScenario(1024),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "skipset", Ref: "§3.1 claim",
			Title:    "skip-list ordered set, Zipf θ=0.9, 40% Contains",
			Expect:   "HCF benefits structures that 'allow at least some amount of parallelism': skip lists named explicitly",
			Scenario: SkipSetScenario(40, 1024, paperTheta),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "queue", Ref: "related-work baseline",
			Title:    "FIFO queue, 50% Enqueue / 50% Dequeue, per-end combiners",
			Expect:   "HCF's two concurrent per-end combiners beat the single global lock of FC",
			Scenario: QueueScenario(50, 2048),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "btree", Ref: "§3.4 family",
			Title:    "B-tree set, Zipf θ=0.9, 40% Contains",
			Expect:   "same shape as the AVL figures with a friendlier speculative footprint (multi-key nodes)",
			Scenario: BTreeScenario(40, 1024, paperTheta),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "sortedlist", Ref: "related work [8]",
			Title:    "sorted linked list, 40% Contains, O(n) scans",
			Expect:   "long scans break speculation; merge-pass combining (HCF, FC) dominates TLE",
			Scenario: SortedListScenario(40, 512),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
		{
			ID: "budget-sweep", Ref: "§3.3 setup claim",
			Title:    "HCF Insert trial-budget sensitivity, hash table at 40% Find, 18 threads",
			Expect:   "the paper's 2/3/5 split is near the best of the sweep ('works reasonably well')",
			Scenario: HashTableScenario(40, paperBuckets),
			Engines:  []string{"HCF"}, Threads: []int{18}, Kind: KindThroughput,
		},
		{
			ID: "sharded", Ref: "scaling extension",
			Title:    "sharded HCF: hash-table throughput vs shard count, 40% Find",
			Expect:   "HCF-S throughput grows with shard count at >= 16 threads (independent combiners on disjoint shards); whole-structure scans (cross=1% rows) serialize every shard and flatten the curve",
			Scenario: ShardedHashTableScenario(40, paperBuckets, 1, 0, 0),
			Engines:  []string{"HCF", "HCF-S"}, Threads: []int{1, 8, 16, 24, 36}, Kind: KindThroughput,
		},
		{
			ID: "autotune", Ref: "§2.4 future work",
			Title:    "evidence-driven policy autotuner vs static policies, drifting priority-queue workload, 36 threads",
			Expect:   "the tuned run matches the best static policy overall and beats every single static policy after the drift point; each policy change is traceable to journal evidence",
			Scenario: PQScenario(autotuneInsertPct, autotuneKeyRange, autotunePrefill),
			Engines:  []string{"HCF"}, Threads: []int{36}, Kind: KindThroughput,
		},
		{
			ID: "openloop", Ref: "production extension",
			Title:    "open-loop offered-load sweep: coordinated-omission-safe sojourn tails to the saturation knee, 4-shard hash table at 40% Find, 36 threads",
			Expect:   "below the knee every engine tracks the offered rate with flat tails; past each engine's capacity the backlog and p99/p999 sojourns blow up and SLO burn-rate verdicts fire — Lock saturates first, HCF later, HCF-S last",
			Scenario: OpenLoopScenario(),
			Engines:  OpenLoopDefaultEngines, Threads: []int{36}, Kind: KindThroughput,
		},
		{
			ID: "elastic", Ref: "production extension",
			Title:    "elastic sharding: hot-shard healing under drifting 90% skew, 4 active / 8 provisioned shards, 36 threads",
			Expect:   "balanced load meets the sojourn SLO throughout; with the topology frozen the drifting skew saturates one shard and its p99 windows blow up; with the rebalancer on, evidence-driven splits spread the hot keyspace and the verdict flips back with post-heal throughput >= 0.8x balanced",
			Scenario: ElasticScenario(40, ElasticBuckets, ElasticMaxShards, ElasticInitialShards, ElasticHotPct, ElasticDefaultHorizon),
			Engines:  []string{ElasticEngineName}, Threads: []int{36}, Kind: KindThroughput,
		},
		{
			ID: "deque", Ref: "§2.4 example",
			Title:    "deque, uniform operations on both ends, specialized variant",
			Expect:   "HCF's two per-end combiners beat the single-lock engines",
			Scenario: DequeScenario(2048, true),
			Engines:  all, Threads: defaultThreads(), Kind: KindThroughput,
		},
	}
}

// FigureByID finds a figure in the registry.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q", id)
}

// RunFigure executes a figure's sweep. The ablation figure additionally
// runs its variant scenarios.
func RunFigure(f Figure, cfg Config) ([]Result, error) {
	if f.Cost.CoresPerSocket != 0 || f.Cost.Sockets != 0 {
		cfg.Cost = f.Cost
	}
	if f.ID == "openloop" {
		// The open-loop figure is its own harness: offered-load sweep with
		// sojourn tails, flattened to sweep rows (rate in the scenario label).
		var results []Result
		for _, th := range f.Threads {
			rep, err := RunOpenLoopFigure(th, cfg, OpenLoopConfig{})
			if err != nil {
				return nil, err
			}
			results = append(results, rep.Results()...)
		}
		return results, nil
	}
	if f.ID == "elastic" {
		// The elastic figure is its own harness: three-mode hot-shard
		// healing comparison, flattened to sweep rows (mode in the label).
		// The registry scenario is representative only — the runner
		// rebuilds it against cfg.Horizon so the drift schedule scales.
		var results []Result
		for _, th := range f.Threads {
			rep, err := RunElasticFigure(th, cfg)
			if err != nil {
				return nil, err
			}
			results = append(results, rep.Results()...)
		}
		return results, nil
	}
	if f.ID == "autotune" {
		// The autotune figure is its own harness: static grid + tuned run +
		// oracle over the drifting workload, flattened to sweep rows.
		var results []Result
		for _, th := range f.Threads {
			rep, err := RunAutotune(th, cfg)
			if err != nil {
				return nil, err
			}
			results = append(results, rep.Results()...)
		}
		return results, nil
	}
	results, err := RunSweep(f.Scenario, f.Engines, f.Threads, cfg)
	if err != nil {
		return nil, err
	}
	switch f.ID {
	case "ablation-avl":
		for _, variant := range []AVLVariant{AVLNoCombine, AVLTwoArrays} {
			sc := AVLScenario(0, paperAVLRange, paperTheta, variant)
			more, err := RunSweep(sc, []string{"HCF"}, f.Threads, cfg)
			if err != nil {
				return nil, err
			}
			results = append(results, more...)
		}
	case "sharded":
		results = results[:0] // replace the base run with the labelled sweep
		for _, shards := range []int{1, 2, 4, 8} {
			sc := ShardedHashTableScenario(40, paperBuckets, shards, 0, 0)
			engines := []string{ShardedEngineName}
			if shards == 1 || shards == 8 {
				// Single-framework reference over the identical partitioned
				// workload, at both ends of the shard-count sweep.
				engines = []string{"HCF", ShardedEngineName}
			}
			more, err := RunSweep(sc, engines, f.Threads, cfg)
			if err != nil {
				return nil, err
			}
			results = append(results, more...)
		}
		// Cross-shard cost row: 1% whole-structure scans over 4 shards. Each
		// scan holds every shard lock, so it bounds throughput regardless of
		// shard count — the honest price of the all-locks path.
		sc := ShardedHashTableScenario(40, paperBuckets, 4, 1, 0)
		more, err := RunSweep(sc, []string{"HCF", ShardedEngineName}, f.Threads, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, more...)
	case "budget-sweep":
		results = results[:0] // replace the base run with the labelled sweep
		for _, b := range [][3]int{{2, 3, 5}, {10, 0, 0}, {0, 0, 10}, {5, 5, 0}, {0, 5, 5}, {4, 3, 3}, {1, 1, 8}} {
			sc := HashTableBudgetScenario(40, paperBuckets, b[0], b[1], b[2])
			more, err := RunSweep(sc, []string{"HCF"}, f.Threads, cfg)
			if err != nil {
				return nil, err
			}
			results = append(results, more...)
		}
	}
	return results, nil
}
