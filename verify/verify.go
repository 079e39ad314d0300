// Package verify exposes the serialization-witness linearizability checker
// for users of the hcf module: install a Recorder on any engine (every
// engine in this module implements hcf.Engine and the witness hook), run
// your workload, then replay the witnessed history against a sequential
// model of YOUR data structure. A valid replay proves every operation was
// applied exactly once, atomically, and in an order consistent with the
// engine's serialization — the strongest end-to-end check available here.
//
//	rec := &verify.Recorder{}
//	fw.SetWitness(rec.Func())
//	env.Run(...)
//	err := verify.Check(rec, myModel, totalOps, nil)
//
// hcfbench -fig explore applies the same machinery over explored
// (adversarially perturbed) schedules; see docs/TESTING.md.
package verify

import (
	"fmt"
	"math/rand/v2"

	"hcf"
	"hcf/internal/witness"
)

// Recorder collects witnessed operation applications. Install with
// (*hcf.Framework).SetWitness(rec.Func()) — or the SetWitness method of any
// baseline engine — before running operations.
type Recorder = witness.Recorder

// Entry is one witnessed application.
type Entry = witness.Entry

// Model is a sequential reference implementation of the data structure
// under test: Apply must return the result a sequential execution of op
// would produce.
type Model = witness.Model

// Check replays the recorded history in serialization order against model
// and returns an error describing the first divergence. expectOps, when
// >= 0, additionally requires exactly that many applications. rank, when
// non-nil, orders operations within atomic combined batches (needed only
// for combiners that apply one kind after the others; pass nil otherwise).
func Check(r *Recorder, model Model, expectOps int, rank func(op hcf.Op) int) error {
	return witness.Check(r, model, expectOps, rank)
}

// CombinerTrial is one randomized test case for CheckCombiner: a fresh data
// structure, a batch of operations against it, and a sequential model
// preloaded to the same state.
type CombinerTrial struct {
	// Batch is the operation batch to hand to the combiner.
	Batch []hcf.Op
	// Model must reflect the data structure's pre-batch state.
	Model Model
	// Rank, when non-nil, defines the combiner's canonical in-batch
	// application order (same contract as Check). Nil means index order.
	Rank func(op hcf.Op) int
}

// CheckCombiner validates a RunMulti implementation against the combiner
// contract: for `trials` randomized trials produced by setup (which
// receives a fresh bootstrap Ctx and a deterministic rng each time), the
// combiner must complete every operation with results matching a
// sequential replay of the batch in canonical order. It returns the first
// divergence.
func CheckCombiner(combine hcf.CombineFunc, trials int, seed uint64,
	setup func(ctx hcf.Ctx, r *rand.Rand) CombinerTrial) error {
	for trial := 0; trial < trials; trial++ {
		env := hcf.NewDetEnv(1)
		rng := rand.New(rand.NewPCG(seed, uint64(trial)))
		tc := setup(env.Boot(), rng)
		n := len(tc.Batch)
		res := make([]uint64, n)
		done := make([]bool, n)
		// Drive like the framework: call until everything completes,
		// requiring progress each round.
		for remaining := n; remaining > 0; {
			combine(env.Boot(), tc.Batch, res, done)
			completed := 0
			for _, d := range done {
				if d {
					completed++
				}
			}
			if n-completed == remaining {
				return fmt.Errorf("trial %d: combiner made no progress with %d operations pending", trial, remaining)
			}
			remaining = n - completed
		}
		// Replay in canonical order.
		type entry struct {
			rank, idx int
		}
		order := make([]entry, n)
		for i, op := range tc.Batch {
			r := 0
			if tc.Rank != nil {
				r = tc.Rank(op)
			}
			order[i] = entry{rank: r, idx: i}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if order[b].rank < order[a].rank ||
					(order[b].rank == order[a].rank && order[b].idx < order[a].idx) {
					order[a], order[b] = order[b], order[a]
				}
			}
		}
		for _, e := range order {
			want := tc.Model.Apply(tc.Batch[e.idx])
			if res[e.idx] != want {
				return fmt.Errorf("trial %d: op %d returned %d, sequential replay gives %d",
					trial, e.idx, res[e.idx], want)
			}
		}
	}
	return nil
}
