package skipset

import (
	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/setops"
)

// Op is the common interface of skip-set operations.
type Op interface {
	setops.Op
	Set() *Set
}

// ContainsOp tests membership. Result: PackBool(present).
type ContainsOp struct {
	S *Set
	K uint64
}

// InsertOp adds a key with a pre-drawn level. Result: PackBool(was absent).
type InsertOp struct {
	S     *Set
	K     uint64
	Level int
}

// RemoveOp deletes a key. Result: PackBool(was present).
type RemoveOp struct {
	S *Set
	K uint64
}

var (
	_ Op = ContainsOp{}
	_ Op = InsertOp{}
	_ Op = RemoveOp{}
)

// Apply implements engine.Op.
func (o ContainsOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.S.Contains(ctx, o.K))
}

// Apply implements engine.Op.
func (o InsertOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.S.Insert(ctx, o.K, o.Level))
}

// Apply implements engine.Op.
func (o RemoveOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.S.Remove(ctx, o.K))
}

// Class implements engine.Op (one class: every op uses the same policy).
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

// Set implements Op.
func (o ContainsOp) Set() *Set { return o.S }

// Set implements Op.
func (o InsertOp) Set() *Set { return o.S }

// Set implements Op.
func (o RemoveOp) Set() *Set { return o.S }

// Kind implements setops.Op.
func (o ContainsOp) Kind() setops.Kind { return setops.Contains }

// Kind implements setops.Op.
func (o InsertOp) Kind() setops.Kind { return setops.Insert }

// Kind implements setops.Op.
func (o RemoveOp) Kind() setops.Kind { return setops.Remove }

// CombineOps applies the AVL set's runMulti discipline (§3.4) to the skip
// set: see setops.Combine.
func CombineOps(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	setops.Combine(ctx, ops, res, done, func(o setops.Op) setops.Target { return target{o.(Op).Set()} })
}

// target applies a key's net effect to the skip set; an insert that takes
// effect uses the winning InsertOp's pre-drawn level.
type target struct{ s *Set }

func (t target) Lookup(ctx memsim.Ctx, key uint64) bool { return t.s.Contains(ctx, key) }
func (t target) Remove(ctx memsim.Ctx, key uint64)      { t.s.Remove(ctx, key) }
func (t target) Insert(ctx memsim.Ctx, key uint64, winner setops.Op) {
	ins, _ := winner.(InsertOp)
	t.s.Insert(ctx, key, ins.Level)
}

// Policies returns the skip-set HCF configuration: one publication array,
// the standard 2/3/5 budget split, and sort/combine/eliminate application.
func Policies() []core.Policy {
	return []core.Policy{{
		Name:               "setop",
		PubArray:           0,
		TryPrivateTrials:   2,
		TryVisibleTrials:   3,
		TryCombiningTrials: 5,
		ShouldHelp:         engine.HelpAll,
		RunMulti:           CombineOps,
		MaxBatch:           8,
	}}
}
