// Package pqueue is a fixed-capacity binary min-heap priority queue for
// the native HCF backend.
//
// Its state splits along the framework's memory contract (see package
// native). The speculative read set — the length word n and root, a
// mirror of heap[0] — holds atomics, because PeekMin reads them under
// optimistic speculation, concurrently with a writer, and relies on
// seqlock validation. The heap array itself is plain memory: only Insert
// and ExtractMin touch it, and they run only inside seqlock critical
// sections, whose acquire/release pairs order each holder's plain writes
// before the next holder's reads. A sift therefore costs ordinary loads
// and stores; only the length word and, when it changes, the root pay for
// an atomic store.
package pqueue

import (
	"fmt"
	"sync/atomic"

	"hcf/internal/native"
)

// Operation classes, indexing the slice Policies returns.
const (
	// ClassInsert pushes a key.
	ClassInsert = iota
	// ClassExtractMin pops the smallest key.
	ClassExtractMin
	// ClassPeekMin reads the smallest key (read-only).
	ClassPeekMin
)

// Queue is the binary min-heap.
type Queue struct {
	// n and root are the speculative read set: PeekMin loads them without
	// the lock. root equals heap[0] whenever n > 0.
	n    atomic.Uint64
	root atomic.Uint64
	// heap is lock-only state, read and written by Insert and ExtractMin
	// inside critical sections only.
	heap []uint64
}

// New creates a queue holding at most capacity keys; Insert panics
// beyond that.
func New(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{heap: make([]uint64, capacity)}
}

// Len returns the number of queued keys. Call only while quiescent or
// under the framework's lock.
func (q *Queue) Len() int { return int(q.n.Load()) }

// Insert pushes k. Must run with the structure lock held.
//
// The sift-up is the classic hole-propagation form: the new key is a
// conceptual hole that bubbles toward the root, each displaced parent
// written once, and the key placed exactly once at the end. The root
// mirror is stored only when the key lands at index 0.
func (q *Queue) Insert(k uint64) uint64 {
	i := q.n.Load()
	h := q.heap
	if int(i) >= len(h) {
		panic(fmt.Sprintf("pqueue: full (%d keys)", len(h)))
	}
	q.n.Store(i + 1)
	for i > 0 {
		parent := (i - 1) / 2
		pv := h[parent]
		if pv <= k {
			break
		}
		h[i] = pv
		i = parent
	}
	h[i] = k
	if i == 0 {
		q.root.Store(k)
	}
	return native.PackBool(true)
}

// ExtractMin pops the smallest key, returning Pack(key, nonempty). Must
// run with the structure lock held.
func (q *Queue) ExtractMin() uint64 {
	n := q.n.Load()
	if n == 0 {
		return native.Pack(0, false)
	}
	h := q.heap
	min := h[0]
	n--
	last := h[n]
	q.n.Store(n)
	if n == 0 {
		return native.Pack(min, true)
	}
	// Hole propagation (see Insert): the root is a hole that sinks toward
	// the leaves, each promoted child written once, and the detached last
	// key placed exactly once where the hole comes to rest.
	i := uint64(0)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		cv := h[l]
		if r < n {
			if rv := h[r]; rv < cv {
				c, cv = r, rv
			}
		}
		if cv >= last {
			break
		}
		h[i] = cv
		i = c
	}
	h[i] = last
	q.root.Store(h[0])
	return native.Pack(min, true)
}

// PeekMin reads the smallest key, returning Pack(key, nonempty). Safe
// under optimistic speculation: it loads only the speculative read set,
// the length word and the root mirror.
func (q *Queue) PeekMin() uint64 {
	if q.n.Load() == 0 {
		return native.Pack(0, false)
	}
	return native.Pack(q.root.Load(), true)
}

// InsertOp, ExtractMinOp and PeekMinOp build operations for the framework.
func InsertOp(k uint64) native.Op { return native.Op{Class: ClassInsert, A: k} }
func ExtractMinOp() native.Op     { return native.Op{Class: ClassExtractMin} }
func PeekMinOp() native.Op        { return native.Op{Class: ClassPeekMin} }

// Policies returns the three-class policy set wiring q onto a native
// framework. Insert and ExtractMin conflict on the heap root, so both
// fall back to combining quickly; PeekMin speculates.
func (q *Queue) Policies(tryPrivate, maxBatch int) []native.Policy {
	return []native.Policy{
		ClassInsert: {
			Name: "Insert", TryPrivate: tryPrivate, MaxBatch: maxBatch,
			Run: func(op native.Op) uint64 { return q.Insert(op.A) },
		},
		ClassExtractMin: {
			Name: "ExtractMin", TryPrivate: tryPrivate, MaxBatch: maxBatch,
			Run: func(op native.Op) uint64 { return q.ExtractMin() },
		},
		ClassPeekMin: {
			Name: "PeekMin", ReadOnly: true, TryPrivate: tryPrivate, MaxBatch: maxBatch,
			Run: func(op native.Op) uint64 { return q.PeekMin() },
		},
	}
}
