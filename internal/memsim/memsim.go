// Package memsim provides the simulated shared memory substrate on which the
// whole reproduction runs.
//
// All state that the HCF paper protects with hardware transactional memory —
// the data-structure lock, selection locks, publication-array slots,
// operation status words, and every word of the data structures themselves —
// lives in a word-addressed arena of cells grouped into cache lines. Each
// line carries a version/lock metadata word (TL2-style), which is used both
// by the software HTM in package htm and by the coherence cost model.
//
// Two backends implement the Env interface:
//
//   - DetEnv: a deterministic multicore simulator. Virtual threads carry
//     per-thread cycle clocks and are scheduled by minimum virtual time, so a
//     36-thread sweep runs faithfully (and reproducibly) on a single-core
//     host. Access costs come from a MESI-like cost model with a per-thread
//     L1 cache simulation, optional SMT sharing and a 2-socket NUMA mode.
//   - RealEnv: a real-concurrency backend built on sync/atomic seqlock
//     cells, used for wall-clock benchmarks and race-detector stress tests.
//
// Sequential data-structure code is written once against the small Ctx
// interface and runs unmodified under direct access (a *Thread), inside a
// speculative transaction (htm.Tx), or under a lock — exactly the
// programming model the paper assumes.
package memsim

// Addr is a word address into the simulated arena. Address 0 is reserved as
// the nil pointer; the allocator never returns it.
type Addr uint32

// NilAddr is the simulated null pointer.
const NilAddr Addr = 0

const (
	// LineShift is log2 of the number of 64-bit words per cache line.
	LineShift = 3
	// WordsPerLine is the number of 64-bit words per simulated cache line
	// (8 words = 64 bytes, matching common hardware).
	WordsPerLine = 1 << LineShift
)

// LineOf returns the cache-line index containing address a.
func LineOf(a Addr) uint32 { return uint32(a) >> LineShift }

// Line metadata encoding (TL2-style versioned write-lock):
//
//	bit 0:     1 when the line is write-locked (by a committing transaction
//	           or a direct read-modify-write)
//	bits 1-63: version — the value of the global version clock at the time
//	           of the last committed write to the line
const metaLockedBit = 1

// MetaLocked reports whether a line metadata word is write-locked.
func MetaLocked(m uint64) bool { return m&metaLockedBit != 0 }

// MetaVersion extracts the version from a line metadata word.
func MetaVersion(m uint64) uint64 { return m >> 1 }

// MakeMeta builds an unlocked metadata word with the given version.
func MakeMeta(version uint64) uint64 { return version << 1 }

// Ctx is the access interface sequential data-structure code is written
// against. It is implemented by *Thread (direct access, used under a lock or
// during initialization) and by *htm.Tx (speculative access inside a
// transaction).
type Ctx interface {
	// Load reads the 64-bit word at a.
	Load(a Addr) uint64
	// Store writes the 64-bit word at a.
	Store(a Addr, v uint64)
	// Alloc allocates a span of words and returns its base address. The
	// words' contents are unspecified; callers must initialize every word
	// they later read.
	Alloc(words int) Addr
	// Free returns a span of words to the allocator. Under a transaction
	// the release is deferred until commit.
	Free(a Addr, words int)
}

// Env is the low-level substrate interface implemented by DetEnv and
// RealEnv. Higher layers (the software HTM, locks, publication arrays)
// are written against it; most code should use the *Thread handle instead.
type Env interface {
	// NumThreads returns the number of worker threads the environment was
	// created with (excluding the bootstrap thread).
	NumThreads() int
	// Thread returns the handle for worker thread id in [0, NumThreads()).
	Thread(id int) *Thread
	// Boot returns a handle usable for single-threaded setup before Run.
	Boot() *Thread
	// Run executes body once per worker thread and returns when all bodies
	// have returned. For DetEnv this drives the deterministic scheduler.
	Run(body func(th *Thread))

	// Alloc and Free manage the word arena. Safe for concurrent use.
	Alloc(words int) Addr
	Free(a Addr, words int)

	// Raw line/word primitives used by the access protocols. These perform
	// no cost accounting; callers pair them with Access.
	LoadMeta(line uint32) uint64
	CASMeta(line uint32, old, new uint64) bool
	StoreMeta(t int, line uint32, m uint64)
	LoadWord(a Addr) uint64
	StoreWord(a Addr, v uint64)

	// LastWriter returns the id of the last thread to commit a write to
	// line, or -1 if the line was never written. It reads bookkeeping the
	// coherence model already maintains and charges no cost — observers use
	// it to attribute conflicts without perturbing the run.
	LastWriter(line uint32) int

	// ReadClock returns the current value of the global version clock.
	ReadClock() uint64
	// TickClock atomically increments the global version clock and returns
	// the new value.
	TickClock() uint64

	// Access charges thread t for one logical access to line (modelled
	// cache/coherence cost). In DetEnv it is also a scheduling point.
	Access(t int, line uint32, write bool)
	// Work charges thread t for c cycles of local computation.
	Work(t int, c int64)
	// IdleUntil parks thread t until its local time reaches deadline — the
	// open-loop primitive: a thread waiting for its next scheduled arrival
	// is idle, not computing, so no execution costs (SMT penalty, jitter)
	// apply to the skipped span. A deadline at or before Now(t) is a no-op
	// (beyond the scheduling point).
	IdleUntil(t int, deadline int64)
	// Yield charges a small cost and (in DetEnv) cedes the virtual CPU; in
	// RealEnv it calls runtime.Gosched.
	Yield(t int)
	// Now returns thread t's local time: virtual cycles in DetEnv,
	// wall-clock nanoseconds since Run started in RealEnv.
	Now(t int) int64
	// Stats returns thread t's access counters.
	Stats(t int) *ThreadStats
}

// Thread is a per-thread handle on an Env. It implements Ctx with direct
// (non-speculative) coherent accesses: loads use a seqlock protocol against
// the line metadata, stores and read-modify-writes briefly write-lock the
// line and bump its version so that concurrent speculative readers abort —
// this is how acquiring the data-structure lock aborts subscribed
// transactions, as in hardware lock elision.
type Thread struct {
	id  int
	env Env
}

// NewThread wraps (env, id); exposed for the backends.
func NewThread(env Env, id int) *Thread { return &Thread{id: id, env: env} }

// ID returns the thread id in [0, NumThreads()), or NumThreads() for the
// bootstrap thread.
func (t *Thread) ID() int { return t.id }

// Env returns the environment the thread belongs to.
func (t *Thread) Env() Env { return t.env }

var _ Ctx = (*Thread)(nil)

// Load performs a direct coherent read of the word at a.
func (t *Thread) Load(a Addr) uint64 {
	line := LineOf(a)
	t.env.Access(t.id, line, false)
	for {
		m1 := t.env.LoadMeta(line)
		if MetaLocked(m1) {
			t.env.Yield(t.id)
			continue
		}
		v := t.env.LoadWord(a)
		if t.env.LoadMeta(line) == m1 {
			return v
		}
		t.env.Yield(t.id)
	}
}

// Store performs a direct coherent write of the word at a, bumping the
// line's version so concurrent speculative readers of the line abort.
func (t *Thread) Store(a Addr, v uint64) {
	line := LineOf(a)
	t.env.Access(t.id, line, true)
	t.lockLine(line)
	t.env.StoreWord(a, v)
	t.env.StoreMeta(t.id, line, MakeMeta(t.env.TickClock()))
}

// CAS atomically compares-and-swaps the word at a. It returns the value
// observed and whether the swap happened.
func (t *Thread) CAS(a Addr, old, new uint64) (uint64, bool) {
	line := LineOf(a)
	t.env.Access(t.id, line, true)
	m := t.lockLine(line)
	v := t.env.LoadWord(a)
	if v != old {
		t.env.StoreMeta(t.id, line, m) // release without version bump
		return v, false
	}
	t.env.StoreWord(a, new)
	t.env.StoreMeta(t.id, line, MakeMeta(t.env.TickClock()))
	return v, true
}

// Add atomically adds delta to the word at a and returns the previous value.
func (t *Thread) Add(a Addr, delta uint64) uint64 {
	line := LineOf(a)
	t.env.Access(t.id, line, true)
	t.lockLine(line)
	v := t.env.LoadWord(a)
	t.env.StoreWord(a, v+delta)
	t.env.StoreMeta(t.id, line, MakeMeta(t.env.TickClock()))
	return v
}

// lockLine spins until it write-locks the line and returns the metadata word
// observed before locking.
func (t *Thread) lockLine(line uint32) uint64 {
	for {
		m := t.env.LoadMeta(line)
		if !MetaLocked(m) && t.env.CASMeta(line, m, m|metaLockedBit) {
			return m
		}
		t.env.Yield(t.id)
	}
}

// Alloc allocates a span of words from the arena.
func (t *Thread) Alloc(words int) Addr { return t.env.Alloc(words) }

// Free returns a span of words to the arena.
func (t *Thread) Free(a Addr, words int) { t.env.Free(a, words) }

// Yield cedes the (virtual) CPU; used in spin loops.
func (t *Thread) Yield() { t.env.Yield(t.id) }

// SpinLoadUntilEq waits until a coherent Load of a observes want. It is
// observably identical — the same accesses, yields and cycle charges in the
// same order — to the open-coded loop
//
//	for t.Load(a) != want {
//		t.Yield()
//	}
//
// On the deterministic backend the waiting thread suspends and the
// scheduler replays the loop's events inline on whichever thread holds
// the host CPU, so futile spin iterations cost no host context switches;
// after a failed probe they are deferred altogether until a probed line is
// about to be written. A wait nothing can ever satisfy makes Run panic with
// "memsim: deadlock".
func (t *Thread) SpinLoadUntilEq(a Addr, want uint64) {
	if e, ok := t.env.(*DetEnv); ok && e.running && t.id < e.n {
		e.spinUntilEq(t.id, a, want)
		return
	}
	for t.Load(a) != want {
		t.Yield()
	}
}

// SpinUntilEitherEq waits until a coherent Load of a1 observes want1
// (returning 0) or — probed second within each round — a Load of a2
// observes want2 (returning 1). It is observably identical to
//
//	for {
//		if t.Load(a1) == want1 { return 0 }
//		if t.Load(a2) == want2 { return 1 }
//		t.Yield()
//	}
//
// with the same passive-waiting host behaviour as SpinLoadUntilEq.
func (t *Thread) SpinUntilEitherEq(a1 Addr, want1 uint64, a2 Addr, want2 uint64) int {
	if e, ok := t.env.(*DetEnv); ok && e.running && t.id < e.n {
		return e.spinUntilEitherEq(t.id, a1, want1, a2, want2)
	}
	for {
		if t.Load(a1) == want1 {
			return 0
		}
		if t.Load(a2) == want2 {
			return 1
		}
		t.Yield()
	}
}

// Work charges c cycles of local computation to the thread.
func (t *Thread) Work(c int64) { t.env.Work(t.id, c) }

// IdleUntil parks the thread until its local time reaches deadline; see
// Env.IdleUntil.
func (t *Thread) IdleUntil(deadline int64) { t.env.IdleUntil(t.id, deadline) }

// Now returns the thread's local time (virtual cycles or wall nanoseconds).
func (t *Thread) Now() int64 { return t.env.Now(t.id) }

// Stats returns the thread's access counters.
func (t *Thread) Stats() *ThreadStats { return t.env.Stats(t.id) }

// ThreadStats counts a thread's memory behaviour. In DetEnv the cache
// counters come from the L1/coherence model; in RealEnv only the operation
// counters are maintained.
type ThreadStats struct {
	Loads           uint64 // logical read accesses
	Stores          uint64 // logical write accesses
	L1Hits          uint64 // accesses served by the simulated L1
	L1Misses        uint64 // all L1 misses (includes coherence/remote)
	CoherenceMisses uint64 // misses caused by another thread's write
	RemoteMisses    uint64 // coherence misses crossing a socket boundary
	Yields          uint64 // spin-loop yields
	WorkCycles      int64  // cycles charged via Work
	IdleCycles      int64  // cycles skipped via IdleUntil
}

// Reset zeroes the counters.
func (s *ThreadStats) Reset() { *s = ThreadStats{} }

// MissRate returns the fraction of accesses that missed in L1.
func (s *ThreadStats) MissRate() float64 {
	total := s.L1Hits + s.L1Misses
	if total == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(total)
}

// sub returns s's counters minus o's.
func (s ThreadStats) sub(o ThreadStats) ThreadStats {
	return ThreadStats{
		Loads:           s.Loads - o.Loads,
		Stores:          s.Stores - o.Stores,
		L1Hits:          s.L1Hits - o.L1Hits,
		L1Misses:        s.L1Misses - o.L1Misses,
		CoherenceMisses: s.CoherenceMisses - o.CoherenceMisses,
		RemoteMisses:    s.RemoteMisses - o.RemoteMisses,
		Yields:          s.Yields - o.Yields,
		WorkCycles:      s.WorkCycles - o.WorkCycles,
		IdleCycles:      s.IdleCycles - o.IdleCycles,
	}
}

// addTimes adds m times d's counters into s.
func (s *ThreadStats) addTimes(d ThreadStats, m uint64) {
	s.Loads += m * d.Loads
	s.Stores += m * d.Stores
	s.L1Hits += m * d.L1Hits
	s.L1Misses += m * d.L1Misses
	s.CoherenceMisses += m * d.CoherenceMisses
	s.RemoteMisses += m * d.RemoteMisses
	s.Yields += m * d.Yields
	s.WorkCycles += int64(m) * d.WorkCycles
	s.IdleCycles += int64(m) * d.IdleCycles
}

// Merge adds o's counters into s.
func (s *ThreadStats) Merge(o *ThreadStats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.CoherenceMisses += o.CoherenceMisses
	s.RemoteMisses += o.RemoteMisses
	s.Yields += o.Yields
	s.WorkCycles += o.WorkCycles
	s.IdleCycles += o.IdleCycles
}
