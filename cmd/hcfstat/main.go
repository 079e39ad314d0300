// Command hcfstat runs one (scenario, engine, threads) configuration and
// prints a deep behavioural report: throughput, HTM abort taxonomy, lock
// and combining statistics, memory-system behaviour, and (for HCF) the
// per-class phase breakdown.
//
// Usage:
//
//	hcfstat -scenario hashtable -find 40 -engine HCF -threads 18
//	hcfstat -scenario sharded -shards 4 -engine HCF-S -threads 36
//	hcfstat -scenario avl -find 0 -theta 0.9 -engine TLE -threads 36
//	hcfstat -scenario pqueue|stack|deque -engine FC -threads 8
//	hcfstat -scenario hashtable -engine HCF -json   # machine-readable output
//	hcfstat -scenario elastic -hot 90 -threads 36 -decisions 5
//
// The elastic scenario always runs the HCF-E engine with its rebalancer
// attached and reports the final ring topology plus the tail of the
// rebalancer's decision journal (-decisions).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"hcf/internal/core"
	"hcf/internal/harness"
	"hcf/internal/htm"
	"hcf/internal/journal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcfstat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hcfstat", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "hashtable", "hashtable | sharded | elastic | avl | pqueue | stack | deque")
		engName  = fs.String("engine", "HCF", "Lock | TLE | FC | SCM | TLE+FC | HCF | HCF-S (elastic always runs HCF-E)")
		threads  = fs.Int("threads", 18, "worker threads")
		find     = fs.Int("find", 40, "find percentage (hashtable, sharded, avl)")
		shards   = fs.Int("shards", 4, "shard count (sharded)")
		cross    = fs.Int("cross", 0, "cross-shard scan percentage (sharded)")
		hot      = fs.Int("hot", 0, "percentage of keys skewed onto shard 0 (sharded); drifting hot-set percentage (elastic)")
		decs     = fs.Int("decisions", 8, "elastic: print the last N rebalancer decisions")
		theta    = fs.Float64("theta", 0.9, "zipf skew (avl)")
		horizon  = fs.Int64("horizon", 200_000, "virtual cycles")
		seed     = fs.Uint64("seed", 1, "workload seed")
		jsonFlg  = fs.Bool("json", false, "emit one machine-readable JSON object instead of the text report")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenario == "elastic" {
		// The elastic report has its own runner (open-loop point with the
		// rebalancer stepped from thread 0) and its own longer default
		// horizon: only forward -horizon when the user actually set it.
		h := int64(0)
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "horizon" {
				h = *horizon
			}
		})
		return runElastic(*find, *hot, *threads, h, *seed, *decs, *jsonFlg)
	}
	if err := harness.ValidateEngineNames([]string{*engName}); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var sc harness.Scenario
	switch *scenario {
	case "hashtable":
		sc = harness.HashTableScenario(*find, 16384)
	case "sharded":
		sc = harness.ShardedHashTableScenario(*find, 16384, *shards, *cross, *hot)
	case "avl":
		sc = harness.AVLScenario(*find, 1024, *theta, harness.AVLCombining)
	case "pqueue":
		sc = harness.PQScenario(50, 1<<20, 4096)
	case "stack":
		sc = harness.StackScenario(1024)
	case "deque":
		sc = harness.DequeScenario(2048, true)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	res, err := harness.RunPoint(sc, *engName, *threads, harness.Config{
		Horizon: *horizon,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	if *jsonFlg {
		out, err := harness.FormatJSON(res)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	report(res)
	return nil
}

// runElastic runs the elastic scenario under HCF-E with the rebalancer
// attached and reports the ring topology and the journal tail.
func runElastic(find, hot, threads int, horizon int64, seed uint64, lastN int, jsonFlg bool) error {
	if horizon <= 0 {
		horizon = harness.ElasticDefaultHorizon
	}
	sc := harness.ElasticScenario(find, harness.ElasticBuckets,
		harness.ElasticMaxShards, harness.ElasticInitialShards, hot, horizon)
	p, err := harness.RunPointElastic(sc, "elastic", true, threads,
		harness.Config{Horizon: horizon, Seed: seed}, harness.ElasticRunConfig{})
	if err != nil {
		return err
	}
	if jsonFlg {
		out, err := json.MarshalIndent(&p, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
		return nil
	}
	fmt.Printf("scenario    %s\n", p.Scenario)
	fmt.Printf("engine      %s (rebalancer attached)\n", p.Engine)
	fmt.Printf("threads     %d\n", p.Threads)
	fmt.Printf("ops         %d of %d arrivals in %d cycles\n", p.Completed, p.Arrivals, p.Makespan)
	fmt.Printf("throughput  %.1f ops/Mcycle (post-phase %.1f), sojourn p99 %d\n",
		p.Throughput, p.PostThroughput, p.Sojourn.P99)
	fmt.Printf("windows     %d bad of %d; healed=%v\n\n", p.BadWindows, len(p.Windows), p.Healed)

	if t := p.Topology; t != nil {
		fmt.Printf("topology    epoch=%d active=%d/%d slots=%d\n",
			t.Ring.Epoch, t.Ring.Active, t.Provisioned, t.Ring.Slots)
		fmt.Printf("            splits=%d merges=%d moved_keys=%d reroutes=%d cross_ops=%d\n",
			t.Splits, t.Merges, t.MovedKeys, t.Reroutes, t.CrossOps)
		fmt.Printf("            shard_ops=%v slot_counts=%v\n\n", t.ShardOps, t.Ring.Counts)
	}
	ds := p.Decisions
	if lastN > 0 {
		ds = journal.Tail(ds, lastN)
	}
	fmt.Printf("rebalancer decisions (last %d of %d):\n", len(ds), len(p.Decisions))
	for _, d := range ds {
		fmt.Printf("  w%03d t=%-8d %-5s %-13s", d.Window, d.Now, d.Action, d.Reason)
		if d.Action != "hold" {
			fmt.Printf(" %d→%d moved=%d", d.From, d.To, d.MovedKeys)
		}
		fmt.Printf("  hottest=%.0f%% fair=%.0f%% ops=%d\n",
			100*d.HottestShare, 100*d.FairShare, d.TotalOps)
	}
	if p.InvariantViolation != "" {
		fmt.Printf("!! INVARIANT VIOLATION: %s\n", p.InvariantViolation)
	}
	return nil
}

func report(r harness.Result) {
	fmt.Printf("scenario    %s\n", r.Scenario)
	fmt.Printf("engine      %s\n", r.Engine)
	fmt.Printf("threads     %d\n", r.Threads)
	fmt.Printf("ops         %d in %d cycles\n", r.Ops, r.Cycles)
	fmt.Printf("throughput  %.1f ops/Mcycle\n\n", r.Throughput)

	m := &r.Metrics
	fmt.Printf("locks       L acquisitions: %d (%.4f/op), selection/aux: %d\n",
		m.LockAcquisitions, perOp(m.LockAcquisitions, r.Ops), m.AuxAcquisitions)
	fmt.Printf("combining   %d ops in %d sessions (degree %.2f)\n",
		m.CombinedOps, m.CombinerSessions, m.CombiningDegree())

	h := &m.HTM
	fmt.Printf("htm         started %d, committed %d (%.1f%%)\n",
		h.Started, h.Commits, pct(h.Commits, h.Started))
	fmt.Printf("  aborts    total %d", h.TotalAborts())
	for reason := htm.ReasonConflict; reason < htm.NumReasons; reason++ {
		if h.Aborts[reason] > 0 {
			fmt.Printf("  %s=%d", reason, h.Aborts[reason])
		}
	}
	fmt.Println()

	fmt.Printf("memory      loads %d, stores %d, L1 miss %.2f%% (coherence %d, cross-socket %d)\n\n",
		r.Mem.Loads, r.Mem.Stores, 100*r.Mem.MissRate(),
		r.Mem.CoherenceMisses, r.Mem.RemoteMisses)

	if r.PhaseByClass != nil {
		fmt.Println("phase completions by class:")
		for c, phases := range r.PhaseByClass {
			var total uint64
			for _, p := range phases {
				total += p
			}
			if total == 0 {
				continue
			}
			fmt.Printf("  class %d:", c)
			for p := 0; p < core.NumPhases; p++ {
				fmt.Printf("  %s=%.1f%%", core.Phase(p), pct(phases[p], total))
			}
			fmt.Println()
		}
	}
	if r.InvariantViolation != "" {
		fmt.Printf("!! INVARIANT VIOLATION: %s\n", r.InvariantViolation)
	}
}

func perOp(n, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
