package avl

import (
	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/setops"
)

// Op is the common interface of AVL operations; combiners use Key for
// sorting and subtree selection.
type Op interface {
	setops.Op
	Tree() *Tree
}

// FindOp tests membership. Result: PackBool(present). Arr selects the
// publication array (0 for the paper's single-array configuration; the
// two-array ablation partitions by key).
type FindOp struct {
	T *Tree
	K uint64
	// Arr selects the publication array for the ablation configurations.
	Arr int
}

// InsertOp adds a key. Result: PackBool(newly inserted).
type InsertOp struct {
	T   *Tree
	K   uint64
	Arr int
}

// RemoveOp deletes a key. Result: PackBool(was present).
type RemoveOp struct {
	T   *Tree
	K   uint64
	Arr int
}

var (
	_ Op = FindOp{}
	_ Op = InsertOp{}
	_ Op = RemoveOp{}
)

// Apply implements engine.Op.
func (o FindOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.T.Contains(ctx, o.K))
}

// Apply implements engine.Op.
func (o InsertOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.T.Insert(ctx, o.K))
}

// Apply implements engine.Op.
func (o RemoveOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.T.Remove(ctx, o.K))
}

// Class implements engine.Op.
func (o FindOp) Class() int { return o.Arr*setops.NumKinds + int(setops.Contains) }

// Class implements engine.Op.
func (o InsertOp) Class() int { return o.Arr*setops.NumKinds + int(setops.Insert) }

// Class implements engine.Op.
func (o RemoveOp) Class() int { return o.Arr*setops.NumKinds + int(setops.Remove) }

// Key implements Op.
func (o FindOp) Key() uint64 { return o.K }

// Key implements Op.
func (o InsertOp) Key() uint64 { return o.K }

// Key implements Op.
func (o RemoveOp) Key() uint64 { return o.K }

// Tree implements Op.
func (o FindOp) Tree() *Tree { return o.T }

// Tree implements Op.
func (o InsertOp) Tree() *Tree { return o.T }

// Tree implements Op.
func (o RemoveOp) Tree() *Tree { return o.T }

// Kind implements setops.Op.
func (o FindOp) Kind() setops.Kind { return setops.Contains }

// Kind implements setops.Op.
func (o InsertOp) Kind() setops.Kind { return setops.Insert }

// Kind implements setops.Op.
func (o RemoveOp) Kind() setops.Kind { return setops.Remove }

// SameSubtree is the paper's shouldHelp for the AVL set (§3.4): a combiner
// selects only operations on keys that fall in the same (left or right)
// subtree of the root as its own key, read from the look-aside cell.
func SameSubtree(ctx memsim.Ctx, mine, other engine.Op) bool {
	m, ok := mine.(Op)
	if !ok {
		return true
	}
	o, ok := other.(Op)
	if !ok {
		return false
	}
	rk := ctx.Load(m.Tree().RootKeyAddr())
	side := func(k uint64) int {
		switch {
		case k < rk:
			return -1
		case k > rk:
			return 1
		default:
			return 0
		}
	}
	return side(m.Key()) == side(o.Key())
}

// CombineOps is the paper's runMulti for the AVL set (§3.4): see
// setops.Combine.
func CombineOps(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	setops.Combine(ctx, ops, res, done, func(o setops.Op) setops.Target { return setops.Tree(o.(Op).Tree()) })
}

// Policies returns the paper's HCF configuration for the AVL set (§3.4):
// one publication array for all operations, subtree-restricted selection,
// and sort/combine/eliminate application. numArrays > 1 builds the
// two-array ablation (operations pre-partitioned by key range set Arr).
func Policies(numArrays int) []core.Policy {
	if numArrays < 1 {
		numArrays = 1
	}
	out := make([]core.Policy, 0, numArrays*setops.NumKinds)
	for a := 0; a < numArrays; a++ {
		for k := 0; k < setops.NumKinds; k++ {
			name := [...]string{"find", "insert", "remove"}[k]
			out = append(out, core.Policy{
				Name:               name,
				PubArray:           a,
				TryPrivateTrials:   2,
				TryVisibleTrials:   3,
				TryCombiningTrials: 5,
				ShouldHelp:         SameSubtree,
				RunMulti:           CombineOps,
				MaxBatch:           8,
			})
		}
	}
	return out
}

// NoCombinePolicies is the §3.4 ablation in which a combiner applies all
// announced operations one after another without combining or elimination.
func NoCombinePolicies() []core.Policy {
	pols := Policies(1)
	for i := range pols {
		pols[i].ShouldHelp = engine.HelpAll
		pols[i].RunMulti = engine.ApplyEach
	}
	return pols
}
