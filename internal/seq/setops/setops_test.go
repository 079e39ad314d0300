package setops_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"hcf"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/avl"
	"hcf/internal/seq/btree"
	"hcf/internal/seq/setops"
	"hcf/internal/seq/skipset"
	"hcf/internal/seq/sortedlist"
	"hcf/verify"
)

// set is one ordered set under test: build makes an empty set in ctx and
// returns an operation constructor plus the set's sorted keys and
// invariant check.
type set struct {
	name    string
	combine engine.CombineFunc
	build   func(ctx memsim.Ctx) (op func(setops.Kind, uint64, *rand.Rand) engine.Op, keys func() []uint64, check func() string)
}

var sets = []set{
	{"avl", avl.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func() []uint64, func() string) {
		tr := avl.New(ctx)
		return func(kind setops.Kind, k uint64, _ *rand.Rand) engine.Op {
				return [...]engine.Op{avl.FindOp{T: tr, K: k}, avl.InsertOp{T: tr, K: k}, avl.RemoveOp{T: tr, K: k}}[kind]
			}, func() []uint64 { return tr.InOrder(ctx, nil) },
			func() string { return tr.CheckInvariants(ctx) }
	}},
	{"btree", btree.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func() []uint64, func() string) {
		tr := btree.New(ctx)
		return func(kind setops.Kind, k uint64, _ *rand.Rand) engine.Op {
				return [...]engine.Op{btree.ContainsOp{T: tr, K: k}, btree.InsertOp{T: tr, K: k}, btree.RemoveOp{T: tr, K: k}}[kind]
			}, func() []uint64 { return tr.Keys(ctx, nil) },
			func() string { return tr.CheckInvariants(ctx) }
	}},
	{"skipset", skipset.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func() []uint64, func() string) {
		s := skipset.New(ctx)
		return func(kind setops.Kind, k uint64, r *rand.Rand) engine.Op {
				switch kind {
				case setops.Contains:
					return skipset.ContainsOp{S: s, K: k}
				case setops.Insert:
					return skipset.InsertOp{S: s, K: k, Level: skipset.RandomLevel(r)}
				}
				return skipset.RemoveOp{S: s, K: k}
			}, func() []uint64 { return s.Keys(ctx, nil) },
			func() string { return s.CheckInvariants(ctx) }
	}},
	{"sortedlist", sortedlist.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func() []uint64, func() string) {
		l := sortedlist.New(ctx)
		return func(kind setops.Kind, k uint64, _ *rand.Rand) engine.Op {
				return [...]engine.Op{sortedlist.ContainsOp{L: l, K: k}, sortedlist.InsertOp{L: l, K: k}, sortedlist.RemoveOp{L: l, K: k}}[kind]
			}, func() []uint64 { return l.Keys(ctx, nil) },
			func() string { return l.CheckInvariants(ctx) }
	}},
}

// TestCombineOpsMatchModel runs every ordered set's CombineOps through
// verify.CheckCombiner on random prefilled sets and random batches with
// repeated keys: results must match setops.Model replayed in setops.Rank
// order, and afterwards the set must hold exactly the model's keys.
func TestCombineOpsMatchModel(t *testing.T) {
	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) {
			// finish compares the previous trial's set with its model, which
			// CheckCombiner has replayed by the time the next trial starts.
			finish := func() error { return nil }
			err := verify.CheckCombiner(s.combine, 200, 5, func(ctx hcf.Ctx, r *rand.Rand) verify.CombinerTrial {
				if err := finish(); err != nil {
					t.Fatal(err)
				}
				op, keys, check := s.build(ctx)
				model := setops.Model{}
				for i := r.IntN(16); i > 0; i-- {
					k := r.Uint64N(24)
					op(setops.Insert, k, r).Apply(ctx)
					model[k] = true
				}
				batch := make([]hcf.Op, 1+r.IntN(16))
				for i := range batch {
					batch[i] = op(setops.Kind(r.IntN(setops.NumKinds)), r.Uint64N(24), r)
				}
				finish = func() error {
					want := make([]uint64, 0, len(model))
					for k := range model {
						want = append(want, k)
					}
					slices.Sort(want)
					if got := keys(); !slices.Equal(got, want) {
						return fmt.Errorf("final keys %v, model %v", got, want)
					}
					if msg := check(); msg != "" {
						return fmt.Errorf("invariant: %s", msg)
					}
					return nil
				}
				return verify.CombinerTrial{Batch: batch, Model: model, Rank: setops.Rank}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRankOrder pins Rank: key*NumKinds + kind, so a batch replays by key,
// then kind (Contains < Insert < Remove); other operations rank first.
func TestRankOrder(t *testing.T) {
	ops := []engine.Op{
		avl.RemoveOp{K: 1}, avl.FindOp{K: 2}, avl.InsertOp{K: 1}, avl.FindOp{K: 1},
	}
	var ranks []int
	for _, op := range ops {
		ranks = append(ranks, setops.Rank(op))
	}
	if want := []int{5, 6, 4, 3}; !slices.Equal(ranks, want) {
		t.Fatalf("ranks %v, want %v", ranks, want)
	}
	if r := setops.Rank(nonSetOp{}); r != -1 {
		t.Fatalf("non-set op rank %d, want -1", r)
	}
}

type nonSetOp struct{}

func (nonSetOp) Apply(memsim.Ctx) uint64 { return 7 }
func (nonSetOp) Class() int              { return 0 }

// TestCombineRunsOtherOpsFirst pins that operations which are not set
// operations run during collection, in batch order, and that a batch of
// only such operations never builds a target.
func TestCombineRunsOtherOpsFirst(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	ops := []engine.Op{nonSetOp{}, nonSetOp{}}
	res := make([]uint64, 2)
	done := make([]bool, 2)
	setops.Combine(env.Boot(), ops, res, done, func(setops.Op) setops.Target {
		t.Fatal("target built for a batch without set operations")
		return nil
	})
	if !done[0] || !done[1] || res[0] != 7 || res[1] != 7 {
		t.Fatalf("res %v done %v", res, done)
	}
}
