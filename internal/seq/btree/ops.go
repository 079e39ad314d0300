package btree

import (
	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/setops"
)

// Op is the common interface of B-tree operations.
type Op interface {
	setops.Op
	Tree() *Tree
}

// ContainsOp tests membership. Result: PackBool(present).
type ContainsOp struct {
	T *Tree
	K uint64
}

// InsertOp adds a key. Result: PackBool(was absent).
type InsertOp struct {
	T *Tree
	K uint64
}

// RemoveOp deletes a key. Result: PackBool(was present).
type RemoveOp struct {
	T *Tree
	K uint64
}

var (
	_ Op = ContainsOp{}
	_ Op = InsertOp{}
	_ Op = RemoveOp{}
)

// Apply implements engine.Op.
func (o ContainsOp) Apply(ctx memsim.Ctx) uint64 {
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

// Class implements engine.Op (single class).
func (o ContainsOp) Class() int { return 0 }

// Class implements engine.Op.
func (o InsertOp) Class() int { return 0 }

// Class implements engine.Op.
func (o RemoveOp) Class() int { return 0 }

// Key implements Op.
func (o ContainsOp) Key() uint64 { return o.K }

// Key implements Op.
func (o InsertOp) Key() uint64 { return o.K }

// Key implements Op.
func (o RemoveOp) Key() uint64 { return o.K }

// Tree implements Op.
func (o ContainsOp) Tree() *Tree { return o.T }

// Tree implements Op.
func (o InsertOp) Tree() *Tree { return o.T }

// Tree implements Op.
func (o RemoveOp) Tree() *Tree { return o.T }

// Kind implements setops.Op.
func (o ContainsOp) Kind() setops.Kind { return setops.Contains }

// Kind implements setops.Op.
func (o InsertOp) Kind() setops.Kind { return setops.Insert }

// Kind implements setops.Op.
func (o RemoveOp) Kind() setops.Kind { return setops.Remove }

// CombineOps applies the §3.4 runMulti discipline to the B-tree: see
// setops.Combine.
func CombineOps(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	setops.Combine(ctx, ops, res, done, func(o setops.Op) setops.Target { return setops.Tree(o.(Op).Tree()) })
}

// Policies returns the B-tree HCF configuration: one publication array,
// the standard budget split, sort/combine/eliminate application.
func Policies() []core.Policy {
	return []core.Policy{{
		Name:               "btreeop",
		PubArray:           0,
		TryPrivateTrials:   2,
		TryVisibleTrials:   3,
		TryCombiningTrials: 5,
		ShouldHelp:         engine.HelpAll,
		RunMulti:           CombineOps,
		MaxBatch:           8,
	}}
}
