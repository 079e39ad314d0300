// Package pqueue is a fixed-capacity priority queue for the native HCF
// backend: a binary min-heap behind a small sorted front buffer.
//
// The front buffer holds up to frontKeys keys in descending order, each
// <= every heap key. Insert puts a key at or below the heap's minimum, or
// any key while the heap is empty, into the buffer by a sorted insert;
// ExtractMin pops the buffer's smallest key and sifts the heap only when
// the buffer is empty. Inserts that undercut the minimum and are soon
// extracted (the paper's motivating example: operations that all meet at
// the minimum) thus eliminate inside the sequential structure without
// touching the heap. A full buffer spills the larger of the new key and
// its largest key into the heap through the ordinary sift-up.
//
// Its state splits along the framework's memory contract (see package
// native). The speculative read set — the length word n, counting buffer
// and heap keys, and root, a mirror of the overall minimum — holds
// atomics, because PeekMin reads them under optimistic speculation,
// concurrently with a writer, and relies on seqlock validation. The
// buffer and the heap array are plain memory: only Insert and ExtractMin
// touch them, and they run only inside seqlock critical sections, whose
// acquire/release pairs order each holder's plain writes before the next
// holder's reads. A sift therefore costs ordinary loads and stores; only
// the length word and, when the minimum changes, the root pay for an
// atomic store.
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

// frontKeys is the front buffer's size: one 64-byte cache line of keys.
const frontKeys = 8

// Queue is the front buffer and the binary min-heap behind it.
type Queue struct {
	// n and root are the speculative read set: PeekMin loads them without
	// the lock. n counts the buffered and the heap keys; root equals the
	// smallest of them whenever n > 0.
	n    atomic.Uint64
	root atomic.Uint64
	// The rest is lock-only state, read and written by Insert and
	// ExtractMin inside critical sections only. front[:nf] is the buffer,
	// descending, each key <= heap[0]; heap[:n-nf] is the heap.
	nf    uint64
	front [frontKeys]uint64
	heap  []uint64
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
// A key above the heap's minimum takes the heap path and leaves the
// overall minimum, so root, unchanged. Any other key goes into the front
// buffer, and root is stored when it becomes the new minimum.
func (q *Queue) Insert(k uint64) uint64 {
	n := q.n.Load()
	if int(n) >= len(q.heap) {
		panic(fmt.Sprintf("pqueue: full (%d keys)", len(q.heap)))
	}
	q.n.Store(n + 1)
	nf := q.nf
	nh := n - nf
	if nh > 0 && k > q.heap[0] {
		q.siftUp(k, nh)
		return native.PackBool(true)
	}
	f := &q.front
	if nf == frontKeys {
		// Full: the larger of k and the buffer's largest key spills. Both
		// are <= heap[0], so the spilled key becomes the heap's root.
		top := f[0]
		if k >= top {
			q.siftUp(k, nh)
			return native.PackBool(true)
		}
		copy(f[:], f[1:])
		nf--
		q.siftUp(top, nh)
	}
	i := nf
	for i > 0 && f[i-1] < k {
		f[i] = f[i-1]
		i--
	}
	f[i] = k
	q.nf = nf + 1
	if i == nf {
		q.root.Store(k)
	}
	return native.PackBool(true)
}

// siftUp adds k to the heap's nh keys. It is the classic
// hole-propagation form: the new key is a conceptual hole that bubbles
// toward the root, each displaced parent written once, and the key
// placed exactly once at the end.
func (q *Queue) siftUp(k, nh uint64) {
	h := q.heap
	i := nh
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
}

// ExtractMin pops the smallest key, returning Pack(key, nonempty). Must
// run with the structure lock held.
func (q *Queue) ExtractMin() uint64 {
	n := q.n.Load()
	if n == 0 {
		return native.Pack(0, false)
	}
	n--
	q.n.Store(n)
	if nf := q.nf; nf > 0 {
		nf--
		q.nf = nf
		min := q.front[nf]
		switch {
		case nf > 0:
			q.root.Store(q.front[nf-1])
		case n > 0:
			q.root.Store(q.heap[0])
		}
		return native.Pack(min, true)
	}
	h := q.heap
	min := h[0]
	if n == 0 {
		return native.Pack(min, true)
	}
	last := h[n]
	// Hole propagation (see siftUp): the root is a hole that sinks toward
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
