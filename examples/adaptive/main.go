// Adaptive example: the paper's §2.4 future-work mechanism in action.
//
// A cache server starts read-dominated, then a bulk-load kicks in and the
// workload turns write-heavy. The HCF configuration that was right for the
// read phase (lots of private speculation for inserts, no combining) turns
// wasteful. A Tuner, given only the framework's own phase-completion
// profile (no metrics recorder, no trace collector), watches each class
// and re-tunes its speculation budgets every epoch — shrinking failing
// speculation toward a floor and growing the combining budget.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"math/rand/v2"

	"hcf"
	"hcf/internal/seq/hashtable"
)

const (
	threads  = 18
	keyRange = 512
	horizon  = 300_000
)

func run(useAdaptive bool) (phase2Ops uint64, budgets string) {
	env := hcf.NewDetEnv(threads)
	boot := env.Boot()
	tbl := hashtable.New(boot, keyRange)
	for k := uint64(0); k < keyRange; k += 2 {
		tbl.Insert(boot, k, k)
	}
	// Read-phase tuning: inserts speculate hard and never combine.
	pols := hashtable.Policies()
	pols[hashtable.ClassInsert].TryPrivateTrials = 8
	pols[hashtable.ClassInsert].TryVisibleTrials = 2
	pols[hashtable.ClassInsert].TryCombiningTrials = 0
	fw, err := hcf.New(env, hcf.Config{Policies: pols})
	if err != nil {
		panic(err)
	}
	var tun *hcf.Tuner
	if useAdaptive {
		tun = hcf.NewTuner(fw, nil, nil, hcf.TunerConfig{
			MinOpsPerEpoch: 48,
			LowPrivate:     0.85,
			HighPrivate:    0.97,
		})
	}
	var phase2 [threads]uint64
	env.Run(func(th *hcf.Thread) {
		rng := rand.New(rand.NewPCG(uint64(th.ID()), 404))
		n := 0
		for th.Now() < horizon {
			key := rng.Uint64N(keyRange)
			bulkLoad := th.Now() >= horizon/2
			if !bulkLoad && rng.IntN(20) != 0 {
				fw.Execute(th, hashtable.FindOp{T: tbl, Key: key})
			} else if rng.IntN(2) == 0 {
				fw.Execute(th, hashtable.InsertOp{T: tbl, Key: key, Val: key})
			} else {
				fw.Execute(th, hashtable.RemoveOp{T: tbl, Key: key})
			}
			if bulkLoad {
				phase2[th.ID()]++
			}
			n++
			if tun != nil && th.ID() == 0 && n%16 == 0 {
				tun.Step(th.Now())
			}
		}
	})
	var total uint64
	for _, c := range phase2 {
		total += c
	}
	p, v, c := fw.Trials(hashtable.ClassInsert)
	return total, fmt.Sprintf("insert budgets end at private=%d visible=%d combining=%d", p, v, c)
}

func main() {
	staticOps, staticB := run(false)
	adaptiveOps, adaptiveB := run(true)
	fmt.Printf("bulk-load phase ops  static:   %6d   (%s)\n", staticOps, staticB)
	fmt.Printf("bulk-load phase ops  adaptive: %6d   (%s)\n", adaptiveOps, adaptiveB)
	delta := 100 * (float64(adaptiveOps) - float64(staticOps)) / float64(staticOps)
	fmt.Printf("adaptation changed bulk-load throughput by %+.1f%%\n", delta)
	fmt.Println("\nThe tuner noticed Insert speculation failing during the bulk",
		"\nload and re-tuned toward combining — no reconfiguration, no restart,",
		"\nand (by the paper's §2.1 argument) no correctness risk.")
}
