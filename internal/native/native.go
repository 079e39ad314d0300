// Package native is the wall-clock HCF backend: the simulator's
// speculation-then-combining pipeline run on real memory, with direct Go
// atomics instead of simulated cells, goroutines instead of simulated
// threads, and wall-clock time instead of virtual cycles. It does not
// import the simulator's phase pipeline (internal/phases); it mirrors
// that package's descriptor protocol (Free -> Announced -> Claimed ->
// Done publication slots) and its per-class policy vocabulary
// (TryPrivate, MaxBatch, ShouldHelp, RunMulti), so configurations
// transfer between the backends. It is the production backend the
// simulator prototypes, deployable as an ordinary Go library (see the
// public hcf/native package and hcf.NewNative).
//
// The pipeline maps onto native memory as follows:
//
//   - TryPrivate (speculation). Hardware transactions are replaced by a
//     software stand-in in the style of Brown's HTM-template fallback:
//     a single seqlock word guards the structure. Read-only classes run
//     optimistically — load the version (even = no writer), run the
//     operation over the atomic cells of its read set, and validate that
//     the version did not change. Update classes attempt a budgeted
//     CAS-acquire of the same word (even v -> odd v+1), apply, help
//     (below), and publish (store v+2). A lost CAS race spends one
//     trial; an update that finds the word held (odd) announces at
//     once, since the holder will help it, and competing for the word
//     would only cost a yield and another CAS. Reads abort to the
//     combining path when the budget is exhausted.
//
//   - Announce + combining. The owner publishes its operation in a
//     cache-padded per-handle publication slot and spins briefly,
//     competing for the word whenever it reads even (after a short
//     deferral when the handle's last update was helped; see affinity
//     below). Whoever holds the seqlock word combines before releasing
//     it: a speculative writer after applying its own operation, or the
//     first announced owner to acquire the word, which becomes the
//     combiner.
//     Either one claims every announced operation its ShouldHelp
//     accepts, applies them in MaxBatch-bounded batches (RunMulti or
//     one-by-one), and publishes each result back through the slot's
//     status word.
//
//   - Combiner affinity. A handle whose last update another holder
//     applied skips speculation on its next update and announces at
//     once, and for its first affinitySpins wait iterations it leaves an
//     even seqlock word alone. The holder that helped it, returning with
//     its own next operation, then finds it announced and applies both
//     in one critical section, on data its core already caches, instead
//     of the two handles taking the word (and the structure's cache
//     lines) in turn. Past those iterations the handle competes for the
//     word as any announced owner does, so a helper that went idle costs
//     it at most affinitySpins yields. Applying an update itself clears
//     the affinity.
//
//   - Parking. A waiter whose operation has been claimed by a seqlock
//     holder spins, then marks its slot Parked (Claimed -> Parked) and
//     blocks on a buffered per-slot channel (the futex stand-in). The
//     holder publishes with a swap to Done and posts a wake token only
//     when the swap replaced Parked, so a helped operation whose owner
//     never parked costs no channel operation on either side, and the
//     channel is empty whenever its owner is not parked. Waiters whose
//     operations are merely announced never park — they stay runnable
//     so one of them can always become the combiner.
//
// Safety under the Go memory model — the contract for structure authors:
//
//   - Cells that a ReadOnly class reads without the lock (its speculative
//     read set) must be atomics. Go's sync/atomic operations behave like
//     sequentially consistent C++ atomics (there is a single total order
//     over all atomic operations), so a read-only operation that observes
//     the same even version before and after ran entirely between one
//     writer's release and the next writer's acquire, and its (possibly
//     torn in time, never in value) cell loads are both race-free and
//     linearizable at the observed version.
//
//   - State that only update classes touch may be plain memory. Update
//     classes run only inside critical sections: a speculative writer or
//     a combiner enters with CompareAndSwap(v, v+1), which succeeds only
//     by observing the value v that the previous holder's releasing store
//     wrote, and that store is sequenced after every plain write the
//     previous holder made. In the Go memory model an atomic write
//     observed by an atomic read is synchronized before it, so each
//     critical section happens after the one before it, and its plain
//     reads see the previous holder's plain writes.
//
// A writer that changes a cell in the read set must store it atomically;
// plain memory it also changes needs no atomics at all. The priority
// queue (internal/native/pqueue) shows the split: PeekMin reads an atomic
// length and root mirror, while the heap array Insert and ExtractMin sift
// through is a plain slice. docs/PERFORMANCE.md spells the argument out.
package native

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Publication-slot status values, mirroring internal/phases' descriptor
// protocol (Free -> Announced -> Claimed -> Done -> Free). The owner
// performs Free->Announced, Claimed->Parked and Done->Free; only a
// seqlock holder — a combiner or a CAS-won writer — performs
// Announced->Claimed and then Claimed or Parked->Done.
const (
	slotFree uint32 = iota
	slotAnnounced
	slotClaimed
	slotParked
	slotDone
)

// cacheLine is the assumed cache-line size; slots are padded to two lines
// so the adjacent-line prefetcher cannot couple neighbours either.
const cacheLine = 64

// spinBudget is how many wait-loop iterations a claimed operation's owner
// spins before parking on its slot channel.
const spinBudget = 64

// affinitySpins is how many wait-loop iterations a handle whose last
// update was helped leaves an even seqlock word to the holder that
// helped it before competing for the word itself.
const affinitySpins = 2

// Op is one data-structure operation: a class (dense, starting at 0,
// indexing Config.Policies) plus up to two operand words. It is a plain
// value — announcing and combining never allocate.
type Op struct {
	// Class selects the policy that runs this operation.
	Class int
	// A and B are the operation's operands (key, value, ...).
	A, B uint64
}

// ApplyFunc runs one operation's sequential code and returns its packed
// result. For ReadOnly classes it must be safe to execute concurrently
// with a writer: all shared state it touches must live in atomic cells,
// and it must terminate on any (stale but never torn) view of them — the
// framework discards results that fail seqlock validation. Update
// classes always run with the seqlock held, so they may also read and
// write plain memory, provided no ReadOnly class reads that memory (see
// the package doc).
type ApplyFunc func(op Op) uint64

// CombineFunc applies a batch of claimed operations (the paper's
// runMulti), marking completions in done and results in res. It may
// complete only a subset per call; the combiner re-invokes it until the
// batch drains, falling back to one-by-one application when a call makes
// no progress. It always runs with the seqlock held, so it is written as
// sequential code.
type CombineFunc func(ops []Op, res []uint64, done []bool)

// ShouldHelpFunc decides whether a combiner executing mine also adopts
// other (the paper's shouldHelp). Nil means help-all.
type ShouldHelpFunc func(mine, other Op) bool

// WitnessFunc observes completed applications for linearizability
// checking, exactly like engine.WitnessFunc on the simulated backend:
// applications are legally ordered by (stamp, intra). Stamps are seqlock
// versions — writers stamp the odd version they hold, validated readers
// stamp the even version they observed — so the version word doubles as
// the serialization clock.
type WitnessFunc func(stamp uint64, intra int, op Op, result uint64)

// Policy configures how the framework handles one operation class. It is
// the native counterpart of core.Policy: the TryPrivate budget, MaxBatch
// bound and ShouldHelp selector transfer unchanged.
type Policy struct {
	// Name labels the class in metrics output.
	Name string
	// ReadOnly marks a class whose operations never modify the structure;
	// its speculation runs validated optimistic reads instead of
	// CAS-acquires. Everything a ReadOnly class's Run reads is its
	// speculative read set and must live in atomic cells; state outside
	// every ReadOnly class's read set may be plain memory.
	ReadOnly bool
	// TryPrivate budgets the speculative attempts before announcing. A
	// read attempt fails when a writer intervenes. An update attempt
	// fails when its CAS loses a race and retries; an update that finds
	// the seqlock held announces at once, because the holder helps
	// announced operations before it releases. An update whose handle
	// was helped last time spends no attempt (combiner affinity).
	TryPrivate int
	// MaxBatch bounds operations per RunMulti call (0 = default 8).
	MaxBatch int
	// ShouldHelp selects which announced operations a combiner running an
	// operation of this class adopts. Nil means help-all.
	ShouldHelp ShouldHelpFunc
	// CombineDelay bounds, in scheduler yields, how long a combiner whose
	// own operation is of this class waits before its claim sweep, giving
	// concurrent owners a window to announce and join the batch — the
	// flat-combining analogue of a group-commit delay. The wait ends
	// early when every other registered handle has already announced
	// (nobody is left to wait for), or once it has cost its expected
	// saving: a moving average of this class's recent combining
	// sessions (the session a joiner would otherwise run itself) times
	// a moving average of how many operations of delay classes from
	// other owners each session claimed, capped at one. So the delay
	// costs at most one session, and none at all while sessions gather
	// no such joiners (a lone writer, or batches too cheap for owners
	// to announce during them); joiners that announce during sessions
	// without a delay turn it back on. Worth setting only when RunMulti
	// amortizes an expensive per-batch cost (e.g. an fsync); leave 0
	// for cheap in-memory batches and for classes that share no such
	// cost (reads), which then skip the timing and count too. It
	// matters most when GOMAXPROCS is low: a combiner blocked in a
	// syscall does not free its P promptly, so without the yield window
	// announcements seldom overlap and batches shrink toward size one.
	CombineDelay int
	// Run is the operation's sequential code. Required.
	Run ApplyFunc
	// RunMulti combines a batch. Nil applies each operation's own Run.
	RunMulti CombineFunc
}

// Config configures a native Framework.
type Config struct {
	// Policies, indexed by Op.Class, must be non-empty.
	Policies []Policy
	// MaxHandles bounds concurrently registered handles (publication
	// slots). 0 defaults to max(8, 4*GOMAXPROCS).
	MaxHandles int
}

// slot is one cache-padded publication slot. The status word orders all
// cross-goroutine accesses to the plain op/result fields: the owner
// writes op before the Announced store, the combiner writes result
// before the Done store.
type slot struct {
	status atomic.Uint32
	_      uint32
	op     Op
	result uint64
	park   chan struct{}
	_      [2*cacheLine - 48]byte
}

// nbudget holds one class's combine-delay state, padded against false
// sharing (combiners of delay classes update it on every session).
type nbudget struct {
	// sessionNS is a moving average of the class's combining sessions in
	// nanoseconds (claim sweep through publish, delay excluded); joined
	// is a moving average, in units of 1/joinedOne, of how many
	// operations of delay classes from other owners each session
	// claimed. Both are kept only for classes with a CombineDelay, whose
	// delay they cap, and are written by combiners, which hold the
	// seqlock.
	sessionNS atomic.Int64
	joined    atomic.Int64
	_         [cacheLine - 16]byte
}

// joinedOne is one joiner per session in nbudget.joined's fixed point.
const joinedOne = 1 << 10

// observeSession folds one combining session's duration and its count
// of delay-class joiners into the moving averages (weight 1/8; the first
// duration seeds its average). The joiner average starts at zero and
// rounds down, so with no joiners it decays to exactly zero.
func (b *nbudget) observeSession(ns int64, joiners int) {
	avg := b.sessionNS.Load()
	if avg == 0 {
		avg = ns
	} else {
		avg += (ns - avg) / 8
	}
	b.sessionNS.Store(avg)
	j := b.joined.Load()
	b.joined.Store(j + (int64(joiners)*joinedOne-j)>>3)
}

// delayBudget is how long a combiner of this class may wait for joiners:
// the session a joiner saves, scaled by how many joiners a session can
// expect (at most one session). Zero until sessions have claimed any.
func (b *nbudget) delayBudget() time.Duration {
	return time.Duration(b.sessionNS.Load() * min(b.joined.Load(), joinedOne) / joinedOne)
}

// Metrics counts one handle's (or, merged, the framework's) activity.
// The counters mirror engine.Metrics where the concepts coincide.
type Metrics struct {
	// Ops is the number of completed operations.
	Ops uint64 `json:"ops"`
	// SpecAttempts counts speculative attempts; SpecAborts the failures.
	// An update that finds the seqlock held counts one of each and
	// announces.
	SpecAttempts uint64 `json:"spec_attempts"`
	SpecAborts   uint64 `json:"spec_aborts"`
	// SpecReadHits / SpecWriteHits count operations completed by
	// validated optimistic reads / CAS-acquired writes.
	SpecReadHits  uint64 `json:"spec_read_hits"`
	SpecWriteHits uint64 `json:"spec_write_hits"`
	// Announces counts operations that fell through to the slot protocol,
	// including the updates that a helped handle announces without
	// speculating.
	Announces uint64 `json:"announces"`
	// LockAcquisitions counts seqlock acquisitions by the combining path
	// (speculative write acquisitions are counted in SpecWriteHits).
	LockAcquisitions uint64 `json:"lock_acquisitions"`
	// CombinerSessions / CombinedOps mirror the combining-degree
	// statistics: operations applied per combining pass. Every combiner
	// pass counts. A CAS-won writer's pass counts only when it claims
	// k >= 1 announced operations, as 1+k ops (its own first). Every
	// announced operation is applied in exactly one pass, so
	// CombinedOps - Announces is the number of writer passes.
	CombinerSessions uint64 `json:"combiner_sessions"`
	CombinedOps      uint64 `json:"combined_ops"`
	// Helped counts operations completed by another handle's pass (a
	// combiner's or a CAS-won writer's).
	Helped uint64 `json:"helped"`
	// Parks counts waits that gave up spinning and blocked on the slot
	// channel.
	Parks uint64 `json:"parks"`
}

// CombiningDegree returns the mean operations applied per combining pass.
func (m *Metrics) CombiningDegree() float64 {
	if m.CombinerSessions == 0 {
		return 0
	}
	return float64(m.CombinedOps) / float64(m.CombinerSessions)
}

// Merge adds o into m.
func (m *Metrics) Merge(o *Metrics) {
	m.Ops += o.Ops
	m.SpecAttempts += o.SpecAttempts
	m.SpecAborts += o.SpecAborts
	m.SpecReadHits += o.SpecReadHits
	m.SpecWriteHits += o.SpecWriteHits
	m.Announces += o.Announces
	m.LockAcquisitions += o.LockAcquisitions
	m.CombinerSessions += o.CombinerSessions
	m.CombinedOps += o.CombinedOps
	m.Helped += o.Helped
	m.Parks += o.Parks
}

// threadMetrics pads one handle's counters onto private cache lines.
type threadMetrics struct {
	m Metrics
	_ [2*cacheLine - 88]byte
}

// Framework is the native HCF engine: one seqlock word, per-class
// budgets, and a cache-padded publication slot per handle.
type Framework struct {
	// seq is the seqlock word: even = free, odd = a writer or combiner is
	// inside its critical section. It doubles as the serialization clock
	// for witness stamps. Padded so speculation traffic cannot false-share
	// with the slot table headers.
	seq atomic.Uint64
	_   [cacheLine - 8]byte

	policies []Policy
	budgets  []nbudget
	slots    []slot
	metrics  []threadMetrics

	// used is the high-water mark of handle ids ever acquired; combiners
	// scan slots [0, used).
	used atomic.Int32

	// witness observes applications; install before running operations.
	witness WitnessFunc

	mu      sync.Mutex
	freeIDs []int32
	nextID  int32
}

// New builds a native framework. Policy defaults mirror core.New:
// MaxBatch 0 becomes 8, ShouldHelp nil means help-all, RunMulti nil
// applies each operation individually.
func New(cfg Config) (*Framework, error) {
	if len(cfg.Policies) == 0 {
		return nil, fmt.Errorf("native: config needs at least one policy")
	}
	maxHandles := cfg.MaxHandles
	if maxHandles <= 0 {
		maxHandles = 4 * runtime.GOMAXPROCS(0)
		if maxHandles < 8 {
			maxHandles = 8
		}
	}
	f := &Framework{
		policies: slices.Clone(cfg.Policies),
		budgets:  make([]nbudget, len(cfg.Policies)),
		slots:    make([]slot, maxHandles),
		metrics:  make([]threadMetrics, maxHandles),
	}
	for c := range f.policies {
		p := &f.policies[c]
		if p.Run == nil {
			return nil, fmt.Errorf("native: policy %d (%s) has no Run", c, p.Name)
		}
		if p.TryPrivate < 0 {
			return nil, fmt.Errorf("native: policy %d (%s) has negative TryPrivate", c, p.Name)
		}
		if p.MaxBatch <= 0 {
			p.MaxBatch = 8
		}
	}
	for i := range f.slots {
		f.slots[i].park = make(chan struct{}, 1)
	}
	return f, nil
}

// NumClasses returns the number of configured operation classes.
func (f *Framework) NumClasses() int { return len(f.policies) }

// ClassName returns class's policy name ("" if unnamed).
func (f *Framework) ClassName(class int) string { return f.policies[class].Name }

// MaxHandles returns the publication-slot capacity.
func (f *Framework) MaxHandles() int { return len(f.slots) }

// Version returns the current seqlock version (for tests and stats).
func (f *Framework) Version() uint64 { return f.seq.Load() }

// SetWitness installs a serialization-witness observer (nil disables).
// Install before running operations; the framework does not synchronize
// installation with in-flight Executes.
func (f *Framework) SetWitness(fn WitnessFunc) { f.witness = fn }

// Metrics merges all handles' counters. Read it only while no operations
// are in flight (e.g. after the workers joined).
func (f *Framework) Metrics() Metrics {
	var m Metrics
	for i := range f.metrics {
		m.Merge(&f.metrics[i].m)
	}
	return m
}

// ResetMetrics zeroes all counters. Call only while quiescent.
func (f *Framework) ResetMetrics() {
	for i := range f.metrics {
		f.metrics[i].m = Metrics{}
	}
}

// scratch is a handle's combining working set, preallocated so sessions
// never allocate.
type scratch struct {
	pend []int32
	ops  []Op
	res  []uint64
	done []bool
}

// Handle is a registered participant: a claim on one publication slot.
// Acquire one per goroutine (Framework.Handle), use it for any number of
// Execute calls, and Release it when the goroutine is done. A Handle
// must not be used concurrently.
type Handle struct {
	fw *Framework
	id int32
	sc scratch
	// helped is set when the handle's last update was applied by another
	// seqlock holder, and cleared when it applied one itself.
	helped bool
}

// Handle registers a participant, claiming a free publication slot.
func (f *Framework) Handle() (*Handle, error) {
	f.mu.Lock()
	var id int32
	if n := len(f.freeIDs); n > 0 {
		id = f.freeIDs[n-1]
		f.freeIDs = f.freeIDs[:n-1]
	} else {
		if int(f.nextID) >= len(f.slots) {
			f.mu.Unlock()
			return nil, fmt.Errorf("native: all %d handles in use (raise Config.MaxHandles)", len(f.slots))
		}
		id = f.nextID
		f.nextID++
		f.used.Store(f.nextID)
	}
	f.mu.Unlock()
	n := len(f.slots)
	return &Handle{
		fw: f,
		id: id,
		sc: scratch{
			pend: make([]int32, 0, n),
			ops:  make([]Op, 0, n),
			res:  make([]uint64, 0, n),
			done: make([]bool, 0, n),
		},
	}, nil
}

// MustHandle is Handle for tests and benchmarks: it panics on exhaustion.
func (f *Framework) MustHandle() *Handle {
	h, err := f.Handle()
	if err != nil {
		panic(err)
	}
	return h
}

// ID returns the handle's slot index, in [0, MaxHandles). Stable for
// the handle's lifetime and unique among live handles, so callers can
// index per-handle side arrays (e.g. staging buffers for operand data
// that does not fit in Op's two words).
func (h *Handle) ID() int { return int(h.id) }

// Release returns the handle's slot to the framework. The handle must
// not be used afterwards.
func (h *Handle) Release() {
	f := h.fw
	f.mu.Lock()
	f.freeIDs = append(f.freeIDs, h.id)
	f.mu.Unlock()
	h.fw = nil
}

// Execute runs op to completion and returns its result. It is
// linearizable: the operation takes effect exactly once, at some instant
// between invocation and return — at its validated read version, inside
// its CAS-acquired critical section, or inside another seqlock holder's.
func (h *Handle) Execute(op Op) uint64 {
	f := h.fw
	pol := &f.policies[op.Class]
	b := &f.budgets[op.Class]
	tm := &f.metrics[h.id].m
	tm.Ops++
	if pol.ReadOnly {
		if res, ok := h.specRead(pol, op, tm); ok {
			return res
		}
		res, _ := h.combine(pol, b, op, 0, tm)
		return res
	}
	affine := 0
	if h.helped {
		affine = affinitySpins
	} else if res, ok := h.specWrite(pol, b, op, tm); ok {
		return res
	}
	res, helped := h.combine(pol, b, op, affine, tm)
	h.helped = helped
	return res
}

// specRead is the optimistic-read speculation path: run the operation
// between two equal even observations of the seqlock word.
func (h *Handle) specRead(pol *Policy, op Op, tm *Metrics) (uint64, bool) {
	f := h.fw
	for i := 0; i < pol.TryPrivate; i++ {
		tm.SpecAttempts++
		v1 := f.seq.Load()
		if v1&1 != 0 {
			tm.SpecAborts++
			runtime.Gosched()
			continue
		}
		res := pol.Run(op)
		if f.seq.Load() == v1 {
			tm.SpecReadHits++
			if f.witness != nil {
				f.witness(v1, 0, op, res)
			}
			return res, true
		}
		tm.SpecAborts++
	}
	return 0, false
}

// specWrite is the CAS-acquire speculation path: budgeted attempts to
// take the seqlock word, apply the single operation, and help the
// operations announced meanwhile before the release. A held word ends
// speculation at once (its holder will help); a lost CAS race spends
// one trial.
func (h *Handle) specWrite(pol *Policy, b *nbudget, op Op, tm *Metrics) (uint64, bool) {
	f := h.fw
	for i := 0; i < pol.TryPrivate; i++ {
		tm.SpecAttempts++
		v := f.seq.Load()
		if v&1 != 0 {
			tm.SpecAborts++
			return 0, false
		}
		if !f.seq.CompareAndSwap(v, v+1) {
			tm.SpecAborts++
			continue
		}
		res := pol.Run(op)
		if f.witness != nil {
			f.witness(v+1, 0, op, res)
		}
		if f.announcedBesides(h.id) {
			h.session(pol, b, op, v+1, false, tm)
		}
		f.seq.Store(v + 2)
		tm.SpecWriteHits++
		return res, true
	}
	return 0, false
}

// combine is the announce -> wait-or-combine path. The owner publishes
// its operation and loops: return when a seqlock holder finished it,
// become the combiner when the seqlock is free (from wait iteration
// affine on), park only once claimed. It reports whether another holder
// applied the operation.
func (h *Handle) combine(pol *Policy, b *nbudget, op Op, affine int, tm *Metrics) (uint64, bool) {
	f := h.fw
	s := &f.slots[h.id]
	s.op = op
	s.result = 0
	s.status.Store(slotAnnounced)
	tm.Announces++
	spins := 0
	for {
		switch s.status.Load() {
		case slotDone:
			res := s.result
			s.status.Store(slotFree)
			tm.Helped++
			return res, true
		case slotClaimed:
			// A holder owns the operation. Its swap to Done posts a wake
			// token only if it replaces Parked, so a failed CAS here means
			// Done is already set and no token comes.
			if spins >= spinBudget && s.status.CompareAndSwap(slotClaimed, slotParked) {
				tm.Parks++
				<-s.park
				continue
			}
		case slotAnnounced:
			// Stay runnable: one announced owner must always be able to
			// become the combiner, or a quiet system would deadlock.
			if spins < affine {
				break
			}
			if v := f.seq.Load(); v&1 == 0 && f.seq.CompareAndSwap(v, v+1) {
				res, ok := h.runCombiner(pol, b, v+1, tm)
				f.seq.Store(v + 2)
				if ok {
					return res, false
				}
				continue // a previous holder finished us: Done is set
			}
		}
		spins++
		runtime.Gosched()
	}
}

// runCombiner runs one combining session while holding the seqlock at
// odd version vodd. It reports the owner's result, or ok=false when a
// previous combiner already completed the owner's operation.
func (h *Handle) runCombiner(pol *Policy, b *nbudget, vodd uint64, tm *Metrics) (uint64, bool) {
	own := &h.fw.slots[h.id]
	tm.LockAcquisitions++
	if own.status.Load() != slotAnnounced {
		// Claimed cannot be observed here — every seqlock holder finishes
		// the operations it claimed before releasing — and neither can
		// Parked, which only this owner sets, from Claimed. So the slot is
		// Done: a previous holder beat us between our last status check
		// and the acquisition.
		return 0, false
	}
	// De-announce our own operation; we apply it ourselves.
	own.status.Store(slotFree)

	// Group-commit delay: let concurrent owners announce before the
	// claim sweep so they ride this batch's RunMulti (and share its
	// per-batch cost) instead of forcing a session of their own.
	var start time.Duration
	delayed := pol.CombineDelay > 0
	if delayed {
		start = h.commitDelay(pol.CombineDelay, b.delayBudget())
	}
	ownRes, joiners := h.session(pol, b, own.op, vodd, true, tm)
	if delayed {
		b.observeSession(int64(time.Since(epoch)-start), joiners)
	}
	return ownRes, true
}

// session is the combining pass every seqlock holder runs at odd version
// vodd on behalf of its operation mine: claim each other handle's
// announced operation that pol.ShouldHelp accepts, apply the batch in
// MaxBatch-bounded RunMulti (or one-by-one) calls, and publish each
// result through its slot. With self, mine is the handle's own
// de-announced operation and leads the batch (a combiner); without, the
// holder already applied mine at intra 0 (a CAS-won writer). It returns
// the handle's own result (with self) and how many claimed operations
// belong to delay classes. A pass that applies nothing counts no
// metrics.
func (h *Handle) session(pol *Policy, b *nbudget, mine Op, vodd uint64, self bool, tm *Metrics) (ownRes uint64, joiners int) {
	f := h.fw
	sc := &h.sc
	sc.pend = sc.pend[:0]
	intra := 1
	if self {
		sc.pend = append(sc.pend, h.id)
		intra = 0
	}
	used := int(f.used.Load())
	for id := 0; id < used; id++ {
		if id == int(h.id) {
			continue
		}
		os := &f.slots[id]
		if os.status.Load() != slotAnnounced {
			continue
		}
		if pol.ShouldHelp != nil && !pol.ShouldHelp(mine, os.op) {
			continue
		}
		os.status.Store(slotClaimed)
		sc.pend = append(sc.pend, int32(id))
		if f.policies[os.op.Class].CombineDelay > 0 {
			joiners++
		}
	}
	if len(sc.pend) == 0 {
		return 0, 0
	}
	tm.CombinerSessions++
	tm.CombinedOps += uint64(intra + len(sc.pend))

	for len(sc.pend) > 0 {
		n := min(len(sc.pend), pol.MaxBatch)
		sc.ops = sc.ops[:0]
		sc.res = sc.res[:0]
		sc.done = sc.done[:0]
		for _, tid := range sc.pend[:n] {
			sc.ops = append(sc.ops, f.slots[tid].op)
			sc.res = append(sc.res, 0)
			sc.done = append(sc.done, false)
		}
		if pol.RunMulti != nil {
			pol.RunMulti(sc.ops, sc.res, sc.done)
			progressed := false
			for i := 0; i < n; i++ {
				if sc.done[i] {
					progressed = true
					break
				}
			}
			if !progressed {
				f.applyEach(sc.ops, sc.res, sc.done)
			}
		} else {
			f.applyEach(sc.ops, sc.res, sc.done)
		}
		// Publish completions: result first, then the Done transition the
		// owner is waiting on, then a wake token if the owner parked.
		keep := sc.pend[:0]
		for i := 0; i < n; i++ {
			tid := sc.pend[i]
			if !sc.done[i] {
				keep = append(keep, tid)
				continue
			}
			if f.witness != nil {
				f.witness(vodd, intra, sc.ops[i], sc.res[i])
			}
			intra++
			if tid == h.id {
				ownRes = sc.res[i]
				continue
			}
			od := &f.slots[tid]
			od.result = sc.res[i]
			if od.status.Swap(slotDone) == slotParked {
				od.park <- struct{}{}
			}
		}
		sc.pend = append(keep, sc.pend[n:]...)
	}
	return ownRes, joiners
}

// commitDelay yields up to maxYields times, stopping once the wait has
// lasted budget (the saving that the joiners a session can expect bring)
// or every other registered handle has announced, and returns when it
// stopped (as time since epoch): the start of the timed session. A zero
// budget never yields.
func (h *Handle) commitDelay(maxYields int, budget time.Duration) time.Duration {
	t0 := time.Since(epoch)
	now := t0
	for d := 0; d < maxYields && now-t0 < budget && !h.fw.othersAnnounced(h.id); d++ {
		runtime.Gosched()
		now = time.Since(epoch)
	}
	return now
}

// epoch anchors the session timer: time.Since(epoch) reads only the
// monotonic clock, about half the cost of time.Now.
var epoch = time.Now()

// announcedBesides reports whether any registered slot but self is
// announced: whether a CAS-won writer has anyone to help. Checking
// before the session keeps a writer that helps nobody from paying for
// the session's call inside its critical section.
func (f *Framework) announcedBesides(self int32) bool {
	used := f.used.Load()
	for id := int32(0); id < used; id++ {
		if id != self && f.slots[id].status.Load() == slotAnnounced {
			return true
		}
	}
	return false
}

// othersAnnounced reports whether every registered slot but self is
// announced, so no further owner can join the coming batch.
func (f *Framework) othersAnnounced(self int32) bool {
	used := f.used.Load()
	for id := int32(0); id < used; id++ {
		if id != self && f.slots[id].status.Load() != slotAnnounced {
			return false
		}
	}
	return true
}

// applyEach runs each remaining operation's own sequential code,
// dispatching on the operation's class (the native engine.ApplyEach).
func (f *Framework) applyEach(ops []Op, res []uint64, done []bool) {
	for i, op := range ops {
		if !done[i] {
			res[i] = f.policies[op.Class].Run(op)
			done[i] = true
		}
	}
}

// Result packing mirrors internal/engine's helpers so native code stays
// free of the simulator's packages: a value of up to 63 bits plus a
// found/success flag, packed into the uint64 an ApplyFunc returns.

// Pack encodes (value, ok) into a result word. value must fit in 63 bits.
func Pack(value uint64, ok bool) uint64 {
	r := value << 1
	if ok {
		r |= 1
	}
	return r
}

// Unpack decodes a result word produced by Pack.
func Unpack(r uint64) (value uint64, ok bool) { return r >> 1, r&1 != 0 }

// PackBool encodes a bare boolean result.
func PackBool(ok bool) uint64 { return Pack(0, ok) }

// UnpackBool decodes a bare boolean result.
func UnpackBool(r uint64) bool { return r&1 != 0 }
