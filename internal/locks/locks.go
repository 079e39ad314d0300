// Package locks provides spin locks whose state lives in simulated memory,
// so that speculative transactions can subscribe to them: a transaction that
// reads a lock's words through its Tx context is aborted when the lock is
// subsequently acquired — the mechanism transactional lock elision is built
// on (paper §2.2, line 5 of Figure 1).
package locks

import "hcf/internal/memsim"

// Lock is a mutual-exclusion lock over simulated memory.
//
// Locked reads the lock state through an arbitrary Ctx: passing an htm.Tx
// subscribes the calling transaction to the lock, passing a *memsim.Thread
// performs a direct read.
type Lock interface {
	Lock(th *memsim.Thread)
	Unlock(th *memsim.Thread)
	Locked(c memsim.Ctx) bool
	// WaitUnlocked blocks until the lock is observed free. It charges
	// exactly the cycles of the open-coded wait
	//
	//	for l.Locked(th) { th.Yield() }
	//
	// but lets the deterministic backend park the waiting thread
	// passively instead of context-switching through every futile probe.
	WaitUnlocked(th *memsim.Thread)
}

// TATAS is a test-and-test-and-set spin lock: unfair but cheap, the common
// choice for TLE's fallback lock.
type TATAS struct {
	word memsim.Addr
}

var _ Lock = (*TATAS)(nil)

// NewTATAS allocates a TATAS lock in env's arena.
func NewTATAS(env memsim.Env) *TATAS {
	l := &TATAS{word: env.Alloc(1)}
	env.StoreWord(l.word, 0)
	return l
}

// Lock spins until the lock is acquired. The wait between acquisition
// attempts is a passive SpinLoadUntilEq, so only rounds that actually
// observe the lock free wake the waiter's goroutine.
func (l *TATAS) Lock(th *memsim.Thread) {
	for {
		th.SpinLoadUntilEq(l.word, 0)
		if _, ok := th.CAS(l.word, 0, uint64(th.ID())+1); ok {
			return
		}
		th.Yield()
	}
}

// TryLock makes one acquisition attempt and reports whether it succeeded.
func (l *TATAS) TryLock(th *memsim.Thread) bool {
	if th.Load(l.word) != 0 {
		return false
	}
	_, ok := th.CAS(l.word, 0, uint64(th.ID())+1)
	return ok
}

// Unlock releases the lock.
func (l *TATAS) Unlock(th *memsim.Thread) {
	th.Store(l.word, 0)
}

// Locked reports whether the lock is held.
func (l *TATAS) Locked(c memsim.Ctx) bool {
	return c.Load(l.word) != 0
}

// WaitUnlocked blocks until the lock is observed free.
func (l *TATAS) WaitUnlocked(th *memsim.Thread) {
	th.SpinLoadUntilEq(l.word, 0)
}

// WaitUnlockedOr blocks until a coherent load of a observes want (returns
// 0) or — probed second within each round — the lock is observed free
// (returns 1). It charges exactly the cycles of the open-coded wait
//
//	for {
//		if th.Load(a) == want { return 0 }
//		if !l.Locked(th) { return 1 }
//		th.Yield()
//	}
//
// Flat combining's announce-then-wait loop has this shape: wait until
// helped, or until the combiner lock frees up.
func (l *TATAS) WaitUnlockedOr(th *memsim.Thread, a memsim.Addr, want uint64) int {
	return th.SpinUntilEitherEq(a, want, l.word, 0)
}

// Holder returns the thread id holding the lock, or -1.
func (l *TATAS) Holder(c memsim.Ctx) int {
	v := c.Load(l.word)
	if v == 0 {
		return -1
	}
	return int(v) - 1
}

// HolderHint returns the thread id holding the lock, or -1, via a raw
// uncharged read: no cost accounting, no scheduling point, no transaction
// footprint. Observability code uses it to attribute lock-subscription
// aborts without perturbing the run.
func (l *TATAS) HolderHint(env memsim.Env) int {
	v := env.LoadWord(l.word)
	if v == 0 {
		return -1
	}
	return int(v) - 1
}

// HolderHinter is implemented by locks that can cheaply name their current
// holder for conflict attribution (TATAS encodes the holder in the lock
// word; Ticket cannot).
type HolderHinter interface {
	Lock
	HolderHint(env memsim.Env) int
}

// Ticket is a FIFO ticket lock; it is starvation free, which the paper's
// progress argument (§2.3) requires of both the data-structure lock and the
// selection locks for HCF to be starvation free.
type Ticket struct {
	next  memsim.Addr // ticket dispenser (own cache line)
	owner memsim.Addr // now-serving counter (own cache line)
}

var _ Lock = (*Ticket)(nil)

// NewTicket allocates a ticket lock in env's arena. The two counters live on
// separate cache lines to avoid false sharing between arriving and departing
// threads.
func NewTicket(env memsim.Env) *Ticket {
	l := &Ticket{
		next:  env.Alloc(memsim.WordsPerLine),
		owner: env.Alloc(memsim.WordsPerLine),
	}
	env.StoreWord(l.next, 0)
	env.StoreWord(l.owner, 0)
	return l
}

// Lock takes a ticket and waits passively until it is served.
func (l *Ticket) Lock(th *memsim.Thread) {
	ticket := th.Add(l.next, 1)
	th.SpinLoadUntilEq(l.owner, ticket)
}

// Unlock serves the next ticket.
func (l *Ticket) Unlock(th *memsim.Thread) {
	th.Store(l.owner, th.Load(l.owner)+1)
}

// Locked reports whether any thread holds or is queued for the lock. For a
// subscribing transaction this is exactly the conservative condition TLE
// wants: speculation should not proceed while the lock is contended.
func (l *Ticket) Locked(c memsim.Ctx) bool {
	return c.Load(l.owner) != c.Load(l.next)
}

// WaitUnlocked blocks until the lock is observed uncontended. The condition
// compares two loaded words, which the passive-wait primitives cannot
// express, so the wait stays open-coded.
func (l *Ticket) WaitUnlocked(th *memsim.Thread) {
	for l.Locked(th) {
		th.Yield()
	}
}
