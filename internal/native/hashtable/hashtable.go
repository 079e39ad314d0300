// Package hashtable is a fixed-capacity open-addressing uint64->uint64
// hash table for the native HCF backend: all cells are atomics, so the
// framework's optimistic-read speculation may scan it concurrently with
// a writer and rely on seqlock validation to discard stale views.
package hashtable

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"hcf/internal/native"
)

// Operation classes, indexing the slice Policies returns.
const (
	// ClassGet looks a key up (read-only).
	ClassGet = iota
	// ClassPut inserts or updates a key.
	ClassPut
	// ClassDelete removes a key.
	ClassDelete
)

// Key cell encoding: 0 = never used, tombstone = deleted, else key+1.
// The two keys above MaxKey would encode as those markers, so they cannot
// be stored: Get and Delete report them absent, and Put's callers must
// reject them.
const (
	tombstone = ^uint64(0)
	// MaxKey is the largest storable key.
	MaxKey = tombstone - 2
)

// Table is the open-addressing table. Writers (Put/Delete) run only
// inside the framework's seqlock critical sections, so they are mutually
// exclusive; readers may run anywhere.
type Table struct {
	shift uint
	mask  uint64
	keys  []atomic.Uint64
	vals  []atomic.Uint64
	// size and dead are atomics so occupancy gauges (the KV engine's
	// serve endpoint polls Len) can read them without holding the
	// framework's lock; writers still mutate them only inside seqlock
	// critical sections.
	size atomic.Uint64
	dead atomic.Uint64
	// scratch holds live (key, val) pairs during compaction; allocated
	// lazily on the first compaction, then reused.
	scratch []uint64
}

// New creates a table with at least capacity slots (rounded up to a
// power of two). The table never resizes; TryPut fails and Put panics
// when it fills, so size it to comfortably exceed the live key count
// (2x is plenty: load factor stays below 1/2 and probes stay short).
func New(capacity int) *Table {
	if capacity < 2 {
		capacity = 2
	}
	n := 1 << bits.Len(uint(capacity-1))
	t := &Table{
		shift: uint(64 - bits.Len(uint(n-1))),
		mask:  uint64(n - 1),
		keys:  make([]atomic.Uint64, n),
		vals:  make([]atomic.Uint64, n),
	}
	return t
}

// Len returns the number of live keys. Safe to call from any goroutine
// at any time: the count is atomic, so occupancy gauges can poll it
// concurrently with writers (the value is naturally a snapshot).
func (t *Table) Len() int { return int(t.size.Load()) }

// Tombstones returns the number of dead (deleted, unreclaimed) cells.
// Safe to call from any goroutine, like Len.
func (t *Table) Tombstones() int { return int(t.dead.Load()) }

// Capacity returns the number of slots.
func (t *Table) Capacity() int { return int(t.mask + 1) }

// hash spreads k with a Fibonacci multiply; the top bits index the table.
func (t *Table) hash(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

// Get returns Pack(value, found). Safe under optimistic speculation: the
// probe loop is bounded by the table size on any stale view.
func (t *Table) Get(k uint64) uint64 {
	if k > MaxKey {
		return native.Pack(0, false)
	}
	i := t.hash(k)
	want := k + 1
	for probes := uint64(0); probes <= t.mask; probes++ {
		ks := t.keys[i].Load()
		if ks == 0 {
			return native.Pack(0, false)
		}
		if ks == want {
			return native.Pack(t.vals[i].Load(), true)
		}
		i = (i + 1) & t.mask
	}
	return native.Pack(0, false)
}

// Put inserts or updates k, which must be at most MaxKey, and returns
// Pack(previous value, replaced). It panics when k is new and the table
// is full. Must run with the structure lock held (writer-exclusive).
func (t *Table) Put(k, v uint64) uint64 {
	r, ok := t.TryPut(k, v)
	if !ok {
		panic(fmt.Sprintf("hashtable: table full (%d slots)", t.mask+1))
	}
	return r
}

// TryPut is Put that reports a full table instead of panicking: ok is
// false, and the table unchanged, when k is new and every cell holds a
// live key. Must run with the structure lock held (writer-exclusive).
func (t *Table) TryPut(k, v uint64) (r uint64, ok bool) {
	t.maybeCompact()
	i := t.hash(k)
	want := k + 1
	haveFree := false // first tombstone seen during the probe, if any
	freeIdx := uint64(0)
	for probes := uint64(0); probes <= t.mask; probes++ {
		ks := t.keys[i].Load()
		if ks == want {
			old := t.vals[i].Load()
			t.vals[i].Store(v)
			return native.Pack(old, true), true
		}
		if ks == tombstone && !haveFree {
			haveFree, freeIdx = true, i
		}
		if ks == 0 {
			if !haveFree {
				freeIdx = i
			}
			return t.insertAt(freeIdx, want, v, haveFree), true
		}
		i = (i + 1) & t.mask
	}
	if haveFree {
		return t.insertAt(freeIdx, want, v, true), true
	}
	return 0, false
}

// insertAt writes a new entry into slot i, maintaining the size and dead
// counters (reusing a tombstone reclaims a dead cell).
func (t *Table) insertAt(i, wantKey, v uint64, reuseTombstone bool) uint64 {
	t.vals[i].Store(v)
	t.keys[i].Store(wantKey)
	t.size.Add(1)
	if reuseTombstone {
		t.dead.Add(^uint64(0))
	}
	return native.Pack(0, false)
}

// Delete removes k and returns PackBool(found). Must run with the
// structure lock held (writer-exclusive).
func (t *Table) Delete(k uint64) uint64 {
	if k > MaxKey {
		return native.PackBool(false)
	}
	i := t.hash(k)
	want := k + 1
	for probes := uint64(0); probes <= t.mask; probes++ {
		ks := t.keys[i].Load()
		if ks == 0 {
			return native.PackBool(false)
		}
		if ks == want {
			t.keys[i].Store(tombstone)
			t.size.Add(^uint64(0))
			t.dead.Add(1)
			t.maybeCompact()
			return native.PackBool(true)
		}
		i = (i + 1) & t.mask
	}
	return native.PackBool(false)
}

// maybeCompact reclaims tombstones once dead cells exceed a quarter of
// the capacity. Without this, put/delete churn monotonically converts 0
// cells into tombstones until every absent-key probe walks the whole
// table and Put can only reuse tombstones in place — O(capacity) probes
// at a live load factor nowhere near full. Must run with the structure
// lock held.
func (t *Table) maybeCompact() {
	if t.dead.Load() > (t.mask+1)/4 {
		t.compact()
	}
}

// compact rehashes all live entries in place, returning every dead cell
// to 0. It deliberately reuses the existing keys/vals backing arrays
// rather than allocating fresh ones: concurrent optimistic readers hold
// references to these slices, and swapping the slice headers would be a
// plain-memory data race. Transient states during the rebuild are fine —
// readers validate against the seqlock and discard anything they saw
// while we held it. Must run with the structure lock held.
func (t *Table) compact() {
	if t.scratch == nil {
		t.scratch = make([]uint64, 0, 2*(t.mask+1))
	}
	live := t.scratch[:0]
	for i := range t.keys {
		ks := t.keys[i].Load()
		if ks != 0 && ks != tombstone {
			live = append(live, ks, t.vals[i].Load())
		}
		t.keys[i].Store(0)
	}
	t.dead.Store(0)
	for j := 0; j < len(live); j += 2 {
		want, v := live[j], live[j+1]
		i := t.hash(want - 1)
		for t.keys[i].Load() != 0 {
			i = (i + 1) & t.mask
		}
		t.vals[i].Store(v)
		t.keys[i].Store(want)
	}
	t.scratch = live[:0]
}

// Range calls f for every live (key, value) pair until f returns false.
// Iteration order is unspecified. Call only while quiescent or under the
// framework's lock — concurrent writers make the walk a torn snapshot.
func (t *Table) Range(f func(k, v uint64) bool) {
	for i := range t.keys {
		ks := t.keys[i].Load()
		if ks == 0 || ks == tombstone {
			continue
		}
		if !f(ks-1, t.vals[i].Load()) {
			return
		}
	}
}

// GetOp, PutOp and DeleteOp build operations for the framework.
func GetOp(k uint64) native.Op    { return native.Op{Class: ClassGet, A: k} }
func PutOp(k, v uint64) native.Op { return native.Op{Class: ClassPut, A: k, B: v} }
func DeleteOp(k uint64) native.Op { return native.Op{Class: ClassDelete, A: k} }

// Policies returns the three-class policy set wiring t onto a native
// framework: optimistic-read Gets, CAS-acquire Puts/Deletes, help-all
// combining. tryPrivate budgets speculation per class; maxBatch bounds
// the combiner's batches (0 = framework default).
func (t *Table) Policies(tryPrivate, maxBatch int) []native.Policy {
	return []native.Policy{
		ClassGet: {
			Name: "Get", ReadOnly: true, TryPrivate: tryPrivate, MaxBatch: maxBatch,
			Run: func(op native.Op) uint64 { return t.Get(op.A) },
		},
		ClassPut: {
			Name: "Put", TryPrivate: tryPrivate, MaxBatch: maxBatch,
			Run: func(op native.Op) uint64 { return t.Put(op.A, op.B) },
		},
		ClassDelete: {
			Name: "Delete", TryPrivate: tryPrivate, MaxBatch: maxBatch,
			Run: func(op native.Op) uint64 { return t.Delete(op.A) },
		},
	}
}
