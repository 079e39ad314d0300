// Package native is the production wall-clock backend of the HCF
// library: the same speculation-then-combining pipeline the simulated
// engines run (see the hcf package), re-targeted at direct Go atomics.
//
// A Framework guards one data structure with a single seqlock word.
// Read-only operation classes speculate with validated optimistic reads;
// update classes speculate with a budgeted CAS-acquire of the same word;
// both fall back to flat combining through cache-padded publication
// slots. Whoever holds the lock, a speculative writer that won it or a
// combiner, applies the announced operations its ShouldHelp accepts
// before releasing it, and an update that finds the lock held announces
// at once. Per-class policies carry the same knobs as the simulated
// framework — TryPrivate budget, MaxBatch, ShouldHelp, RunMulti — so
// configurations transfer between the two backends.
//
// # Quick start
//
//	m, _ := native.NewMap(1 << 15)
//	var wg sync.WaitGroup
//	for g := 0; g < runtime.NumCPU(); g++ {
//		wg.Add(1)
//		go func() {
//			defer wg.Done()
//			h := m.Handle() // one per goroutine
//			defer h.Release()
//			h.Put(42, 7)
//			v, ok := h.Get(42)
//			...
//		}()
//	}
//	wg.Wait()
//
// Custom data structures implement their sequential code and wire it on
// with Policies. Cells that a read-only class reads under speculation
// must be atomics; state only update classes touch may be plain memory,
// since updates always run with the lock held. See
// internal/native/hashtable and internal/native/pqueue for the two
// shipped examples, and docs/PERFORMANCE.md ("Native backend") for the
// memory-model argument and wall-clock numbers against sync.Mutex,
// sync.RWMutex and sync.Map.
package native

import (
	"fmt"
	"runtime"

	inative "hcf/internal/native"
	ihash "hcf/internal/native/hashtable"
	ipq "hcf/internal/native/pqueue"
)

// Core types, aliased from the internal implementation.
type (
	// Framework is the native HCF engine.
	Framework = inative.Framework
	// Handle is a registered participant (one publication slot); acquire
	// one per goroutine.
	Handle = inative.Handle
	// Op is one data-structure operation (class + operand words).
	Op = inative.Op
	// Policy configures one operation class.
	Policy = inative.Policy
	// Config configures a Framework.
	Config = inative.Config
	// Metrics aggregates framework activity counters.
	Metrics = inative.Metrics
	// ApplyFunc is an operation's sequential code.
	ApplyFunc = inative.ApplyFunc
	// CombineFunc combines a batch of claimed operations.
	CombineFunc = inative.CombineFunc
	// ShouldHelpFunc selects which announced operations a combiner adopts.
	ShouldHelpFunc = inative.ShouldHelpFunc
	// WitnessFunc observes applications for linearizability checking.
	WitnessFunc = inative.WitnessFunc
)

// New builds a native framework.
func New(cfg Config) (*Framework, error) { return inative.New(cfg) }

// Result packing helpers.
var (
	// Pack encodes (63-bit value, ok) into a result word.
	Pack = inative.Pack
	// Unpack decodes a result word.
	Unpack = inative.Unpack
	// PackBool encodes a bare boolean result.
	PackBool = inative.PackBool
	// UnpackBool decodes a bare boolean result.
	UnpackBool = inative.UnpackBool
)

// DefaultTryPrivate is the speculation budget the ready-made structures
// use: enough attempts to ride out a short critical section before
// falling back to combining.
const DefaultTryPrivate = 8

// Map is a ready-made concurrent uint64->uint64 map: an open-addressing
// table (internal/native/hashtable) wired onto a Framework. Acquire a
// MapHandle per goroutine.
type Map struct {
	fw *Framework
	t  *ihash.Table
}

// wrapperHandles is the handle capacity for the ready-made wrappers:
// roomy enough for heavily oversubscribed goroutine ladders (slots are
// two cache lines each, so generosity is cheap).
func wrapperHandles() int {
	if n := 8 * runtime.GOMAXPROCS(0); n > 64 {
		return n
	}
	return 64
}

// MaxKey is the largest key a Map stores: the two keys above it are the
// table's empty and deleted markers. Get and Delete report them absent,
// and Put panics on them.
const MaxKey = ihash.MaxKey

// NewMap builds a map with at least capacity slots (fixed; size it to
// roughly twice the expected live key count). Keys must be at most
// MaxKey.
func NewMap(capacity int) (*Map, error) {
	t := ihash.New(capacity)
	fw, err := inative.New(Config{Policies: t.Policies(DefaultTryPrivate, 0), MaxHandles: wrapperHandles()})
	if err != nil {
		return nil, err
	}
	return &Map{fw: fw, t: t}, nil
}

// Framework exposes the underlying engine (metrics, witness).
func (m *Map) Framework() *Framework { return m.fw }

// Len returns the number of live keys; call only while quiescent.
func (m *Map) Len() int { return m.t.Len() }

// Handle registers a per-goroutine participant. It panics when
// Config.MaxHandles handles are already live.
func (m *Map) Handle() *MapHandle { return &MapHandle{h: m.fw.MustHandle()} }

// MapHandle is a per-goroutine handle on a Map. Not safe for concurrent
// use; Release it when the goroutine is done.
type MapHandle struct{ h *Handle }

// Get returns the value stored under k.
func (mh *MapHandle) Get(k uint64) (uint64, bool) {
	return Unpack(mh.h.Execute(ihash.GetOp(k)))
}

// Put stores v under k, returning the previous value if one was replaced.
// It panics when k exceeds MaxKey.
func (mh *MapHandle) Put(k, v uint64) (prev uint64, replaced bool) {
	if k > MaxKey {
		panic(fmt.Sprintf("native: key %d exceeds MaxKey", k))
	}
	return Unpack(mh.h.Execute(ihash.PutOp(k, v)))
}

// Delete removes k, reporting whether it was present.
func (mh *MapHandle) Delete(k uint64) bool {
	return UnpackBool(mh.h.Execute(ihash.DeleteOp(k)))
}

// Release returns the handle's slot.
func (mh *MapHandle) Release() { mh.h.Release() }

// PQueue is a ready-made concurrent priority queue: a binary min-heap
// behind a sorted front buffer (internal/native/pqueue) wired onto a
// Framework.
type PQueue struct {
	fw *Framework
	q  *ipq.Queue
}

// NewPQueue builds a queue holding at most capacity keys.
func NewPQueue(capacity int) (*PQueue, error) {
	q := ipq.New(capacity)
	fw, err := inative.New(Config{Policies: q.Policies(DefaultTryPrivate, 0), MaxHandles: wrapperHandles()})
	if err != nil {
		return nil, err
	}
	return &PQueue{fw: fw, q: q}, nil
}

// Framework exposes the underlying engine.
func (p *PQueue) Framework() *Framework { return p.fw }

// Len returns the number of queued keys; call only while quiescent.
func (p *PQueue) Len() int { return p.q.Len() }

// Handle registers a per-goroutine participant.
func (p *PQueue) Handle() *PQueueHandle { return &PQueueHandle{h: p.fw.MustHandle()} }

// PQueueHandle is a per-goroutine handle on a PQueue.
type PQueueHandle struct{ h *Handle }

// Insert pushes k.
func (ph *PQueueHandle) Insert(k uint64) { ph.h.Execute(ipq.InsertOp(k)) }

// ExtractMin pops the smallest key.
func (ph *PQueueHandle) ExtractMin() (uint64, bool) {
	return Unpack(ph.h.Execute(ipq.ExtractMinOp()))
}

// PeekMin reads the smallest key without removing it.
func (ph *PQueueHandle) PeekMin() (uint64, bool) {
	return Unpack(ph.h.Execute(ipq.PeekMinOp()))
}

// Release returns the handle's slot.
func (ph *PQueueHandle) Release() { ph.h.Release() }
