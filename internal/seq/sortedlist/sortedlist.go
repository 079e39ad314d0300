// Package sortedlist implements a sequential sorted singly-linked-list set.
// Its operations are O(n) scans with large read footprints, which makes it
// the opposite regime from the hash table: speculation suffers capacity and
// conflict aborts on long walks, while a combiner amortizes beautifully —
// a batch of k operations sorted by key applies in a single merge pass over
// the list instead of k walks. Related work on combining for linked lists
// ([8] in the paper) targets exactly this structure.
package sortedlist

import (
	"hcf/internal/memsim"
	"hcf/internal/seq/setops"
)

// Node layout: word 0 key, word 1 next. Padded to a line.
const (
	offKey    = 0
	offNext   = 1
	nodeWords = memsim.WordsPerLine
)

// List is a sequential sorted set of uint64 keys over simulated memory.
type List struct {
	head memsim.Addr // head pointer cell
}

// New builds an empty list using ctx.
func New(ctx memsim.Ctx) *List {
	l := &List{head: ctx.Alloc(memsim.WordsPerLine)}
	ctx.Store(l.head, 0)
	return l
}

// cursor is a position in the list: cell is the pointer cell whose
// successor node is the first with key >= the last key looked up. Single
// operations start a cursor at the head; the combiner's merge pass keeps
// one cursor for the whole sorted batch.
type cursor struct {
	cell, node memsim.Addr
}

func (l *List) cursor() *cursor { return &cursor{cell: l.head} }

// Lookup advances the cursor to key and reports whether key is present.
func (c *cursor) Lookup(ctx memsim.Ctx, key uint64) bool {
	for {
		c.node = memsim.Addr(ctx.Load(c.cell))
		if c.node == 0 || ctx.Load(c.node+offKey) >= key {
			return c.node != 0 && ctx.Load(c.node+offKey) == key
		}
		c.cell = c.node + offNext
	}
}

// Insert links a new node for key in front of the cursor's node (which
// Lookup found absent) and moves the cursor past it.
func (c *cursor) Insert(ctx memsim.Ctx, key uint64, _ setops.Op) {
	n := ctx.Alloc(nodeWords)
	ctx.Store(n+offKey, key)
	ctx.Store(n+offNext, uint64(c.node))
	ctx.Store(c.cell, uint64(n))
	c.cell = n + offNext
}

// Remove unlinks and frees the cursor's node (which Lookup found present).
func (c *cursor) Remove(ctx memsim.Ctx, key uint64) {
	ctx.Store(c.cell, ctx.Load(c.node+offNext))
	ctx.Free(c.node, nodeWords)
}

// Contains reports whether key is in the set.
func (l *List) Contains(ctx memsim.Ctx, key uint64) bool {
	return l.cursor().Lookup(ctx, key)
}

// Insert adds key, returning true if it was absent.
func (l *List) Insert(ctx memsim.Ctx, key uint64) bool {
	c := l.cursor()
	if c.Lookup(ctx, key) {
		return false
	}
	c.Insert(ctx, key, nil)
	return true
}

// Remove deletes key, returning true if it was present.
func (l *List) Remove(ctx memsim.Ctx, key uint64) bool {
	c := l.cursor()
	if !c.Lookup(ctx, key) {
		return false
	}
	c.Remove(ctx, key)
	return true
}

// Len returns the number of keys.
func (l *List) Len(ctx memsim.Ctx) int {
	count := 0
	for n := memsim.Addr(ctx.Load(l.head)); n != 0; n = memsim.Addr(ctx.Load(n + offNext)) {
		count++
	}
	return count
}

// Keys appends all keys in ascending order to dst.
func (l *List) Keys(ctx memsim.Ctx, dst []uint64) []uint64 {
	for n := memsim.Addr(ctx.Load(l.head)); n != 0; n = memsim.Addr(ctx.Load(n + offNext)) {
		dst = append(dst, ctx.Load(n+offKey))
	}
	return dst
}

// CheckInvariants verifies strict ascending order. Returns "" when
// consistent.
func (l *List) CheckInvariants(ctx memsim.Ctx) string {
	seen := map[memsim.Addr]bool{}
	first := true
	var prev uint64
	for n := memsim.Addr(ctx.Load(l.head)); n != 0; n = memsim.Addr(ctx.Load(n + offNext)) {
		if seen[n] {
			return "cycle in list"
		}
		seen[n] = true
		k := ctx.Load(n + offKey)
		if !first && k <= prev {
			return "list not strictly ascending"
		}
		first = false
		prev = k
	}
	return ""
}
