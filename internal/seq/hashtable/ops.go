package hashtable

import (
	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/route"
)

// Operation classes. Find and Remove share a publication array and a
// TLE-like policy; Insert gets its own array and the full four-phase
// treatment (§3.3).
const (
	ClassFind = iota
	ClassInsert
	ClassRemove
	// NumClasses is the number of operation classes.
	NumClasses
)

// FindOp looks up a key. Result: Pack(value, found).
type FindOp struct {
	T   *Table
	Key uint64
}

var _ engine.Op = FindOp{}

// Apply implements engine.Op.
func (o FindOp) Apply(ctx memsim.Ctx) uint64 {
	v, ok := o.T.Find(ctx, o.Key)
	return engine.Pack(v, ok)
}

// Class implements engine.Op.
func (o FindOp) Class() int { return ClassFind }

// InsertOp stores a pair. Result: PackBool(newly inserted).
type InsertOp struct {
	T   *Table
	Key uint64
	Val uint64
}

var _ engine.Op = InsertOp{}

// Apply implements engine.Op.
func (o InsertOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.T.Insert(ctx, o.Key, o.Val))
}

// Class implements engine.Op.
func (o InsertOp) Class() int { return ClassInsert }

// SumOp iterates the whole table through the table list (the reason the
// list exists, §3.3) and returns the sum of all values modulo 2^63. Its
// read set spans the entire structure, so under load it typically exceeds
// HTM capacity and drains through the combining phases — a realistic
// "analytics scan" stressor. Result: Pack(sum mod 2^63, true).
type SumOp struct {
	T *Table
}

var _ engine.Op = SumOp{}

// Apply implements engine.Op.
func (o SumOp) Apply(ctx memsim.Ctx) uint64 {
	var sum uint64
	o.T.Iterate(ctx, func(k, v uint64) bool {
		sum += v
		return true
	})
	return engine.Pack(sum&((1<<63)-1), true)
}

// Class implements engine.Op: scans share the Find/Remove array.
func (o SumOp) Class() int { return ClassFind }

// SumAllOp sums every value across a set of tables (a sharded structure's
// whole-structure scan). Its read set spans all shards, so RouteKey gives
// it no key and a sharded engine runs it on the all-locks cross-shard
// path. Result: Pack(sum mod 2^63, true).
type SumAllOp struct {
	Tables []*Table
}

var _ engine.Op = SumAllOp{}

// Apply implements engine.Op.
func (o SumAllOp) Apply(ctx memsim.Ctx) uint64 {
	var sum uint64
	for _, t := range o.Tables {
		t.Iterate(ctx, func(k, v uint64) bool {
			sum += v
			return true
		})
	}
	return engine.Pack(sum&((1<<63)-1), true)
}

// Class implements engine.Op: scans share the Find/Remove array.
func (o SumAllOp) Class() int { return ClassFind }

// RemoveOp deletes a key. Result: PackBool(was present).
type RemoveOp struct {
	T   *Table
	Key uint64
}

var _ engine.Op = RemoveOp{}

// Apply implements engine.Op.
func (o RemoveOp) Apply(ctx memsim.Ctx) uint64 {
	return engine.PackBool(o.T.Remove(ctx, o.Key))
}

// Class implements engine.Op.
func (o RemoveOp) Class() int { return ClassRemove }

// RouteKey is the shard.KeyFunc for hash-table operations: single-key
// operations route by their key; whole-structure scans (SumOp,
// SumAllOp) and anything unrecognized report ok=false and run on a
// sharded engine's cross-shard all-locks path. This is the one routing
// extractor shared by every sharded hash-table consumer (harness,
// examples, explore sweep) — the four hand-written mod-N closures it replaced
// each re-derived it.
func RouteKey(op engine.Op) (uint64, bool) {
	switch o := op.(type) {
	case FindOp:
		return o.Key, true
	case InsertOp:
		return o.Key, true
	case RemoveOp:
		return o.Key, true
	}
	return 0, false
}

// BindTable returns op bound to table t. It is the shard.Elastic Bind
// hook for hash-table ops: single-key operations are rebound to the
// table of whatever shard owns their key at apply time; other ops pass
// through unchanged.
func BindTable(op engine.Op, t *Table) engine.Op {
	switch o := op.(type) {
	case FindOp:
		o.T = t
		return o
	case InsertOp:
		o.T = t
		return o
	case RemoveOp:
		o.T = t
		return o
	}
	return op
}

// MigrateTables is the resharding mover for a ring-partitioned set of
// tables (one per shard): every key in tables[from] that the next ring
// routes elsewhere is removed and re-inserted into its new owner's
// table, and the number of keys moved is returned. It is plain
// sequential code — callers (shard.Elastic's MigrateFunc) run it while
// holding every shard's data-structure lock, making the whole move one
// linearizable step.
func MigrateTables(ctx memsim.Ctx, tables []*Table, from int, next *route.Ring) int {
	var keys, vals []uint64
	tables[from].Iterate(ctx, func(k, v uint64) bool {
		if next.Owner(k) != from {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		return true
	})
	for i, k := range keys {
		tables[from].Remove(ctx, k)
		tables[next.Owner(k)].Insert(ctx, k, vals[i])
	}
	return len(keys)
}

// CombineInserts is the RunMulti for the Insert publication array: all
// pending inserts are applied through InsertN, chaining their table-list
// splices into one head update. A batch may span tables (a sharded
// structure combined by a single framework): each table gets its own
// InsertN over its own operations, preserving in-batch order per table —
// inserts on different tables touch disjoint memory and commute.
func CombineInserts(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	var (
		table   *Table
		tables  []*Table
		multi   bool
		keys    []uint64
		values  []uint64
		indices []int
	)
	for i, op := range ops {
		if done[i] {
			continue
		}
		ins, ok := op.(InsertOp)
		if !ok {
			// Foreign op type in the batch (possible for FC, which mixes
			// classes): run it directly.
			res[i] = op.Apply(ctx)
			done[i] = true
			continue
		}
		if table != nil && ins.T != table {
			multi = true
		}
		table = ins.T
		tables = append(tables, ins.T)
		keys = append(keys, ins.Key)
		values = append(values, ins.Val)
		indices = append(indices, i)
	}
	if table == nil {
		return
	}
	if !multi {
		results := make([]bool, len(keys))
		table.InsertN(ctx, keys, values, results)
		for j, i := range indices {
			res[i] = engine.PackBool(results[j])
			done[i] = true
		}
		return
	}
	// Batch spans tables: peel off one table's operations at a time, in
	// first-appearance order.
	for len(indices) > 0 {
		t := tables[0]
		var ks, vs []uint64
		var idx []int
		var rt []*Table
		var rk, rv []uint64
		var ri []int
		for j := range indices {
			if tables[j] == t {
				ks = append(ks, keys[j])
				vs = append(vs, values[j])
				idx = append(idx, indices[j])
			} else {
				rt = append(rt, tables[j])
				rk = append(rk, keys[j])
				rv = append(rv, values[j])
				ri = append(ri, indices[j])
			}
		}
		results := make([]bool, len(ks))
		t.InsertN(ctx, ks, vs, results)
		for j, i := range idx {
			res[i] = engine.PackBool(results[j])
			done[i] = true
		}
		tables, keys, values, indices = rt, rk, rv, ri
	}
}

// Policies returns the paper's HCF configuration for the hash table
// (§3.3): Find and Remove behave like TLE on publication array 0 (all ten
// speculation attempts private, straight to the lock afterwards), Insert
// uses array 1 with the 2/3/5 trial split and InsertN combining.
func Policies() []core.Policy {
	tleLike := func(name string) core.Policy {
		return core.Policy{
			Name:             name,
			PubArray:         0,
			TryPrivateTrials: 10,
			ShouldHelp:       engine.HelpNone,
		}
	}
	find := tleLike("find")
	remove := tleLike("remove")
	insert := core.Policy{
		Name:               "insert",
		PubArray:           1,
		TryPrivateTrials:   2,
		TryVisibleTrials:   3,
		TryCombiningTrials: 5,
		ShouldHelp:         engine.HelpAll,
		RunMulti:           CombineInserts,
		MaxBatch:           8,
	}
	out := make([]core.Policy, NumClasses)
	out[ClassFind] = find
	out[ClassInsert] = insert
	out[ClassRemove] = remove
	return out
}

// CombineMixed is the combining function for the FC and TLE+FC baselines:
// announced Inserts are combined with InsertN while Finds and Removes are
// applied sequentially afterwards (the paper's FC variant, §3.3).
func CombineMixed(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	CombineInserts(ctx, ops, res, done)
	engine.ApplyEach(ctx, ops, res, done)
}

// Model is the sequential hash-table model for witness.Check: one map for
// every table, exact while the tables partition the key space. It replays
// FindOp, InsertOp, RemoveOp and SumAllOp; other operations return 0.
type Model map[uint64]uint64

// Apply returns op's result on the model and applies its effect.
func (m Model) Apply(op engine.Op) uint64 {
	switch o := op.(type) {
	case FindOp:
		v, ok := m[o.Key]
		return engine.Pack(v, ok)
	case InsertOp:
		_, existed := m[o.Key]
		m[o.Key] = o.Val
		return engine.PackBool(!existed)
	case RemoveOp:
		_, existed := m[o.Key]
		delete(m, o.Key)
		return engine.PackBool(existed)
	case SumAllOp:
		var sum uint64
		for _, v := range m {
			sum += v
		}
		return engine.Pack(sum&((1<<63)-1), true)
	}
	return 0
}

// Rank is CombineMixed's in-batch order as a witness rank (see
// witness.Check): Finds and Removes apply at their scan positions, the
// combined Inserts afterwards.
func Rank(op engine.Op) int {
	if _, ok := op.(InsertOp); ok {
		return 1
	}
	return 0
}
