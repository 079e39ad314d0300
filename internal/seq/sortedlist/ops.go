package sortedlist

import (
	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/setops"
)

// Op is the common interface of sorted-list operations.
type Op interface {
	setops.Op
	List() *List
}

// ContainsOp tests membership. Result: PackBool(present).
type ContainsOp struct {
	L *List
	K uint64
}

// InsertOp adds a key. Result: PackBool(was absent).
type InsertOp struct {
	L *List
	K uint64
}

// RemoveOp deletes a key. Result: PackBool(was present).
type RemoveOp struct {
	L *List
	K uint64
}

var (
	_ Op = ContainsOp{}
	_ Op = InsertOp{}
	_ Op = RemoveOp{}
)

// Apply implements engine.Op.
func (o ContainsOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.L.Contains(ctx, o.K))
}

// Apply implements engine.Op.
func (o InsertOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.L.Insert(ctx, o.K))
}

// Apply implements engine.Op.
func (o RemoveOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.L.Remove(ctx, o.K))
}

// Class implements engine.Op (a single class).
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

// List implements Op.
func (o ContainsOp) List() *List { return o.L }

// List implements Op.
func (o InsertOp) List() *List { return o.L }

// List implements Op.
func (o RemoveOp) List() *List { return o.L }

// Kind implements setops.Op.
func (o ContainsOp) Kind() setops.Kind { return setops.Contains }

// Kind implements setops.Op.
func (o InsertOp) Kind() setops.Kind { return setops.Insert }

// Kind implements setops.Op.
func (o RemoveOp) Kind() setops.Kind { return setops.Remove }

// CombineOps applies a whole batch in a single merge pass: setops.Combine
// looks the batch's keys up in ascending order and each lookup resumes the
// walk where the previous one stopped, so k operations cost one O(length)
// traversal instead of k.
func CombineOps(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	setops.Combine(ctx, ops, res, done, func(o setops.Op) setops.Target { return o.(Op).List().cursor() })
}

// Policies returns the sorted-list HCF configuration: long scans make
// speculation fragile, so the budgets lean toward combining.
func Policies() []core.Policy {
	return []core.Policy{{
		Name:               "listop",
		PubArray:           0,
		TryPrivateTrials:   2,
		TryVisibleTrials:   2,
		TryCombiningTrials: 6,
		ShouldHelp:         engine.HelpAll,
		RunMulti:           CombineOps,
		MaxBatch:           16,
	}}
}
