package witness

import (
	"math/rand/v2"
	"testing"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/avl"
	"hcf/internal/seq/btree"
	"hcf/internal/seq/queue"
	"hcf/internal/seq/setops"
	"hcf/internal/seq/skipset"
	"hcf/internal/seq/sortedlist"
)

// fifoModel replays queue operations.
type fifoModel struct{ vals []uint64 }

func (m *fifoModel) Apply(op engine.Op) uint64 {
	switch o := op.(type) {
	case queue.EnqueueOp:
		m.vals = append(m.vals, o.Val)
		return engine.PackBool(true)
	case queue.DequeueOp:
		if len(m.vals) == 0 {
			return engine.Pack(0, false)
		}
		v := m.vals[0]
		m.vals = m.vals[1:]
		return engine.Pack(v, true)
	}
	return 0
}

// dequeuesLast mirrors queue.CombineMixed: enqueues splice first, dequeues
// serve afterwards.
func dequeuesLast(op engine.Op) int {
	if _, ok := op.(queue.DequeueOp); ok {
		return 1
	}
	return 0
}

func TestQueueLinearizableAllEngines(t *testing.T) {
	const threads, perThread = 8, 40
	for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			q := queue.New(env.Boot())
			rec := &Recorder{}
			eng := witnessedEngines(t, env, queue.Policies(), queue.CombineMixed, rec)[name]
			env.Run(func(th *memsim.Thread) {
				rng := rand.New(rand.NewPCG(uint64(th.ID()), 8))
				for i := 0; i < perThread; i++ {
					if rng.IntN(2) == 0 {
						eng.Execute(th, queue.EnqueueOp{Q: q, Val: rng.Uint64() >> 1})
					} else {
						eng.Execute(th, queue.DequeueOp{Q: q})
					}
				}
			})
			if err := Check(rec, &fifoModel{}, threads*perThread, dequeuesLast); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The skip set under the engines that never batch (Lock, TLE, SCM), where
// no in-batch rank is needed; TestOrderedSetsLinearizableAllEngines covers
// every engine with setops.Rank.
func TestSkipSetLinearizableNonBatchingEngines(t *testing.T) {
	const threads, perThread = 8, 50
	for _, name := range []string{"Lock", "TLE", "SCM"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			s := skipset.New(env.Boot())
			rec := &Recorder{}
			eng := witnessedEngines(t, env, skipset.Policies(), skipset.CombineOps, rec)[name]
			env.Run(func(th *memsim.Thread) {
				rng := rand.New(rand.NewPCG(uint64(th.ID()), 9))
				for i := 0; i < perThread; i++ {
					k := rng.Uint64N(64)
					switch rng.IntN(3) {
					case 0:
						eng.Execute(th, skipset.InsertOp{S: s, K: k, Level: skipset.RandomLevel(rng)})
					case 1:
						eng.Execute(th, skipset.ContainsOp{S: s, K: k})
					default:
						eng.Execute(th, skipset.RemoveOp{S: s, K: k})
					}
				}
			})
			if err := Check(rec, setops.Model{}, threads*perThread, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The B-tree under the engines that never batch (same situation as the
// skip set).
func TestBTreeLinearizableNonBatchingEngines(t *testing.T) {
	const threads, perThread = 8, 50
	for _, name := range []string{"Lock", "TLE", "SCM"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			tr := btree.New(env.Boot())
			rec := &Recorder{}
			eng := witnessedEngines(t, env, btree.Policies(), btree.CombineOps, rec)[name]
			env.Run(func(th *memsim.Thread) {
				rng := rand.New(rand.NewPCG(uint64(th.ID()), 10))
				for i := 0; i < perThread; i++ {
					k := rng.Uint64N(96)
					switch rng.IntN(3) {
					case 0:
						eng.Execute(th, btree.InsertOp{T: tr, K: k})
					case 1:
						eng.Execute(th, btree.ContainsOp{T: tr, K: k})
					default:
						eng.Execute(th, btree.RemoveOp{T: tr, K: k})
					}
				}
			})
			if err := Check(rec, setops.Model{}, threads*perThread, nil); err != nil {
				t.Fatal(err)
			}
			if msg := tr.CheckInvariants(env.Boot()); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// orderedSet is one of the four ordered sets that combine through
// setops.Combine: build makes an empty set in ctx and returns an operation
// constructor plus its invariant check.
type orderedSet struct {
	name     string
	policies []core.Policy
	combine  engine.CombineFunc
	build    func(ctx memsim.Ctx) (op func(kind setops.Kind, k uint64, r *rand.Rand) engine.Op, check func(memsim.Ctx) string)
}

var orderedSets = []orderedSet{
	{"avl", avl.Policies(1), avl.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func(memsim.Ctx) string) {
		tr := avl.New(ctx)
		return func(kind setops.Kind, k uint64, _ *rand.Rand) engine.Op {
			return [...]engine.Op{avl.FindOp{T: tr, K: k}, avl.InsertOp{T: tr, K: k}, avl.RemoveOp{T: tr, K: k}}[kind]
		}, tr.CheckInvariants
	}},
	{"btree", btree.Policies(), btree.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func(memsim.Ctx) string) {
		tr := btree.New(ctx)
		return func(kind setops.Kind, k uint64, _ *rand.Rand) engine.Op {
			return [...]engine.Op{btree.ContainsOp{T: tr, K: k}, btree.InsertOp{T: tr, K: k}, btree.RemoveOp{T: tr, K: k}}[kind]
		}, tr.CheckInvariants
	}},
	{"skipset", skipset.Policies(), skipset.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func(memsim.Ctx) string) {
		s := skipset.New(ctx)
		return func(kind setops.Kind, k uint64, r *rand.Rand) engine.Op {
			switch kind {
			case setops.Contains:
				return skipset.ContainsOp{S: s, K: k}
			case setops.Insert:
				return skipset.InsertOp{S: s, K: k, Level: skipset.RandomLevel(r)}
			}
			return skipset.RemoveOp{S: s, K: k}
		}, s.CheckInvariants
	}},
	{"sortedlist", sortedlist.Policies(), sortedlist.CombineOps, func(ctx memsim.Ctx) (func(setops.Kind, uint64, *rand.Rand) engine.Op, func(memsim.Ctx) string) {
		l := sortedlist.New(ctx)
		return func(kind setops.Kind, k uint64, _ *rand.Rand) engine.Op {
			return [...]engine.Op{sortedlist.ContainsOp{L: l, K: k}, sortedlist.InsertOp{L: l, K: k}, sortedlist.RemoveOp{L: l, K: k}}[kind]
		}, l.CheckInvariants
	}},
}

// TestOrderedSetsLinearizableAllEngines witness-checks every ordered set
// under every engine, batching ones included: setops.Rank makes the replay
// follow the combiner's (key, kind, index) order within a batch.
func TestOrderedSetsLinearizableAllEngines(t *testing.T) {
	const threads, perThread = 8, 40
	for _, set := range orderedSets {
		for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
			t.Run(set.name+"/"+name, func(t *testing.T) {
				env := memsim.NewDet(memsim.DetConfig{Threads: threads})
				op, check := set.build(env.Boot())
				rec := &Recorder{}
				eng := witnessedEngines(t, env, set.policies, set.combine, rec)[name]
				env.Run(func(th *memsim.Thread) {
					rng := rand.New(rand.NewPCG(uint64(th.ID()), 11))
					for i := 0; i < perThread; i++ {
						eng.Execute(th, op(setops.Kind(rng.IntN(setops.NumKinds)), rng.Uint64N(48), rng))
					}
				})
				if err := Check(rec, setops.Model{}, threads*perThread, setops.Rank); err != nil {
					t.Fatal(err)
				}
				if msg := check(env.Boot()); msg != "" {
					t.Fatal(msg)
				}
			})
		}
	}
}
