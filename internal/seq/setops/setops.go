// Package setops is the set-semantics combiner shared by the ordered sets
// (avl, btree, skipset, sortedlist): the paper's runMulti for the AVL set
// (§3.4). A combiner sorts its selected operations by key and operation
// kind, combines and eliminates same-key operations under set semantics
// (of two Inserts of an absent key only the first takes effect; the rest
// return "already present"), and applies at most one physical update per
// key.
package setops

import (
	"sort"

	"hcf/internal/engine"
	"hcf/internal/memsim"
)

// Kind is a set operation's type. Within one key a batch applies its
// operations in Kind order: lookups, then inserts, then removes.
type Kind int

// The set operation kinds, in in-batch application order.
const (
	Contains Kind = iota
	Insert
	Remove
)

// NumKinds is the number of operation kinds.
const NumKinds = int(Remove) + 1

// Op is a set operation on one key.
type Op interface {
	engine.Op
	Key() uint64
	Kind() Kind
}

// Target is the set a batch applies to. Combine calls Lookup once per
// distinct key of the batch, in ascending key order, and then at most one
// update for that key before it looks up the next: Insert when the key
// ends the batch present but started it absent (winner is the operation
// whose insert took effect), Remove when it ends absent but started
// present.
type Target interface {
	Lookup(ctx memsim.Ctx, key uint64) bool
	Insert(ctx memsim.Ctx, key uint64, winner Op)
	Remove(ctx memsim.Ctx, key uint64)
}

// Combine is the body of a set's CombineFunc. Operations that are not set
// operations run first, in batch order, while the batch is collected. The
// set operations then run in (key, kind, index) order against the Target
// that open builds from the batch's last set operation.
func Combine(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool, open func(Op) Target) {
	type item struct {
		key  uint64
		kind Kind
		idx  int
	}
	items := make([]item, 0, len(ops))
	var last Op
	for i, op := range ops {
		if done[i] {
			continue
		}
		so, ok := op.(Op)
		if !ok {
			res[i] = op.Apply(ctx)
			done[i] = true
			continue
		}
		last = so
		items = append(items, item{key: so.Key(), kind: so.Kind(), idx: i})
	}
	if last == nil {
		return
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].key != items[b].key {
			return items[a].key < items[b].key
		}
		if items[a].kind != items[b].kind {
			return items[a].kind < items[b].kind
		}
		return items[a].idx < items[b].idx
	})
	t := open(last)
	for g := 0; g < len(items); {
		key := items[g].key
		initial := t.Lookup(ctx, key)
		cur, winner := initial, -1
		h := g
		for ; h < len(items) && items[h].key == key; h++ {
			it := items[h]
			switch it.kind {
			case Contains:
				res[it.idx] = engine.PackBool(cur)
			case Insert:
				res[it.idx] = engine.PackBool(!cur)
				if !cur {
					winner = it.idx
				}
				cur = true
			case Remove:
				res[it.idx] = engine.PackBool(cur)
				cur = false
			}
			done[it.idx] = true
		}
		switch {
		case cur && !initial:
			t.Insert(ctx, key, ops[winner].(Op))
		case !cur && initial:
			t.Remove(ctx, key)
		}
		g = h
	}
}

// Rank is Combine's in-batch order as a witness rank (see witness.Check):
// key*NumKinds + kind, with ties broken by the batch index. Operations that
// are not set operations rank -1, ahead of every set operation. Rank is
// valid for keys below 2^61.
func Rank(op engine.Op) int {
	so, ok := op.(Op)
	if !ok {
		return -1
	}
	return int(so.Key())*NumKinds + int(so.Kind())
}

// Model is the sequential set model: the keys present. It replays set
// operations for witness.Check; other operations return 0.
type Model map[uint64]bool

// Apply returns op's result on the model and applies its effect.
func (m Model) Apply(op engine.Op) uint64 {
	so, ok := op.(Op)
	if !ok {
		return 0
	}
	k := so.Key()
	had := m[k]
	switch so.Kind() {
	case Insert:
		m[k] = true
		return engine.PackBool(!had)
	case Remove:
		delete(m, k)
	}
	return engine.PackBool(had)
}

// Set is a sequential set whose every operation searches from its root.
type Set interface {
	Contains(ctx memsim.Ctx, key uint64) bool
	Insert(ctx memsim.Ctx, key uint64) bool
	Remove(ctx memsim.Ctx, key uint64) bool
}

// Tree adapts s to a Target: each key's lookup and update search s from
// its root.
func Tree(s Set) Target { return tree{s} }

type tree struct{ s Set }

func (t tree) Lookup(ctx memsim.Ctx, key uint64) bool  { return t.s.Contains(ctx, key) }
func (t tree) Insert(ctx memsim.Ctx, key uint64, _ Op) { t.s.Insert(ctx, key) }
func (t tree) Remove(ctx memsim.Ctx, key uint64)       { t.s.Remove(ctx, key) }
