package memsim

import (
	"fmt"
	"iter"
	"math"
	"strings"
	"sync"
)

const (
	pageShift = 14
	pageWords = 1 << pageShift // 64-bit words per arena page
	pageLines = pageWords / WordsPerLine
)

// detPage is one arena page of the deterministic backend. Plain (non-atomic)
// storage is safe because the scheduler runs exactly one virtual thread at a
// time.
type detPage struct {
	words [pageWords]uint64
	metas [pageLines]uint64
	// lastW records the last thread to commit a write to each line
	// (-1 = none); used by the coherence cost model.
	lastW [pageLines]int32
}

func newDetPage() *detPage {
	p := &detPage{}
	for i := range p.lastW {
		p.lastW[i] = -1
	}
	return p
}

// DetConfig configures a deterministic environment.
type DetConfig struct {
	// Threads is the number of simulated worker threads.
	Threads int
	// Cost is the cycle cost model; zero fields take defaults.
	Cost CostParams
	// Seed seeds the per-thread jitter generators (see
	// CostParams.JitterPct). Runs with equal configuration and seed are
	// bit-identical.
	Seed uint64
	// Explore enables adversarial schedule exploration (see explore.go).
	// The zero value keeps the pure minimum-virtual-time schedule.
	Explore ExploreConfig
}

// DetEnv is the deterministic multicore simulator backend. Virtual threads
// are coroutines that run one at a time under a min-virtual-time scheduler;
// each memory access advances the accessing thread's cycle clock by a cost
// from the coherence model. Runs are fully deterministic for a given
// configuration and workload seed.
//
// Scheduling is run-until-preempted: after charging an access, the current
// thread keeps running as long as it is still the minimum-(clock, id)
// runnable thread (a heap peek, no synchronization), and when another thread
// becomes the minimum the thread suspends and Run's loop resumes the thread
// it named — two coroutine switches, with no trip through the Go
// scheduler. A passive spin-waiter whose last probe failed leaves the run
// heap until a line it watches is about to be written (see dispatch and
// wake). The thread selected at every scheduling point is
// identical to the classic pop-min design, so simulated results are
// bit-for-bit unchanged; only host time is saved.
type DetEnv struct {
	n    int
	cost CostParams

	pages    []*detPage
	nextFree Addr
	freelist [][]Addr // freelist[words] = LIFO of freed spans of that size
	clock    uint64

	threads []*Thread
	workers []*worker // each worker thread's coroutine during Run
	caches  []*l1Cache
	stats   []ThreadStats
	clocks  []int64
	jitter  []uint64 // per-thread splitmix states (0 slice = disabled)

	running bool
	handoff int32 // the thread a suspending thread hands the CPU to
	sched   detHeap
	waits   []detWait
	panicV  any

	// Dormant passive waiters: off the heap, asleep on the lines they
	// watch (one bit per line in watch) until wake catches them up to the
	// frontier, the largest (clock+boost, id) selected to run so far in
	// this Run. cur is the thread selected last.
	dormant []int32
	watch   []uint64
	frontK  int64
	frontID int32
	cur     int32
	// catchUp's scratch copy of a waiter's watched L1 sets, and the most
	// steps one catch-up has run (tests check that it skips whole rounds).
	snap     l1Sets
	maxSteps int

	// Schedule exploration (see explore.go). Both stay nil with a zero
	// DetConfig.Explore, keeping the scheduler's fast paths untouched.
	exp   *explore
	boost []int64 // per-thread priority offsets added to heap comparisons
}

// detWait is a worker thread's declarative wait state. While passive, the
// thread's coroutine stays suspended and its spin-loop events (access charges,
// seqlock reads, yield charges) are executed inline — one step per
// scheduling quantum — by whichever thread or loop is driving the scheduler
// at that moment. The step stream is bit-identical to the open-coded spin
// loop the primitive replaces; only the host context switches are elided.
type detWait struct {
	passive bool
	kind    uint8
	phase   uint8
	which   int
	addr    Addr
	addr2   Addr
	want    uint64
	want2   uint64
}

// Wait kinds.
const (
	waitUntilEq       uint8 = iota // until Load(addr) == want
	waitUntilEitherEq              // until Load(addr)==want or Load(addr2)==want2
)

// Outcomes of one passive-wait step.
const (
	stepMore    uint8 = iota // the wait goes on
	stepBlocked              // a failed check: while the watched lines stay unchanged, no later step can succeed
	stepDone                 // the predicate held
)

// Step phases of a passive wait.
const (
	phAccess1 uint8 = iota // charge the access for addr
	phRead1                // seqlock-read addr, check want
	phAccess2              // charge the access for addr2
	phRead2                // seqlock-read addr2, check want2
)

var _ Env = (*DetEnv)(nil)

// NewDet creates a deterministic environment with cfg.Threads worker threads
// plus a bootstrap thread (id == cfg.Threads) for setup.
func NewDet(cfg DetConfig) *DetEnv {
	if cfg.Threads <= 0 {
		panic(fmt.Sprintf("memsim: invalid thread count %d", cfg.Threads))
	}
	cfg.Cost.normalize()
	e := &DetEnv{
		n:        cfg.Threads,
		cost:     cfg.Cost,
		nextFree: WordsPerLine, // reserve line 0 so Addr 0 stays nil
		freelist: make([][]Addr, 64),
		dormant:  make([]int32, 0, cfg.Threads),
	}
	total := cfg.Threads + 1 // + bootstrap
	e.threads = make([]*Thread, total)
	e.workers = make([]*worker, cfg.Threads)
	e.waits = make([]detWait, cfg.Threads)
	e.caches = make([]*l1Cache, total)
	e.stats = make([]ThreadStats, total)
	e.clocks = make([]int64, total)
	for i := 0; i < total; i++ {
		e.threads[i] = NewThread(e, i)
		e.caches[i] = newL1Cache(cfg.Cost.L1Sets, cfg.Cost.L1Ways)
	}
	if cfg.Cost.JitterPct > 0 {
		e.jitter = make([]uint64, total)
		for i := range e.jitter {
			e.jitter[i] = cfg.Seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
		}
	}
	if cfg.Explore.enabled() {
		e.exp = &explore{
			cfg:  cfg.Explore,
			rng:  cfg.Explore.Seed*0xD1342543DE82EF95 + 0x2545F4914F6CDD1D,
			span: cfg.Explore.boostSpan(),
		}
		e.boost = make([]int64, cfg.Threads)
	}
	e.sched.env = e
	return e
}

// NumThreads returns the number of worker threads.
func (e *DetEnv) NumThreads() int { return e.n }

// Thread returns worker thread id's handle.
func (e *DetEnv) Thread(id int) *Thread { return e.threads[id] }

// Boot returns the bootstrap thread handle for single-threaded setup.
func (e *DetEnv) Boot() *Thread { return e.threads[e.n] }

// Run executes body once per worker thread under the deterministic
// scheduler and returns when every body has returned. It must not be called
// concurrently with itself. A panic in any body is re-raised from Run after
// the remaining threads have finished.
//
// Each body runs on a pooled coroutine, resumed only by Run's loop: the
// loop resumes the thread dispatch selects, and when that thread suspends
// at a scheduling point it resumes the thread the suspending one named.
// A wait that deadlock ends unwinds its body with a package-private panic,
// so a body that recovers must re-panic values it does not own.
func (e *DetEnv) Run(body func(th *Thread)) {
	if e.running {
		panic("memsim: DetEnv.Run called reentrantly")
	}
	e.running = true
	e.panicV = nil
	for i := range e.waits {
		e.waits[i] = detWait{}
	}
	clear(e.watch)
	e.frontK, e.frontID = math.MinInt64, -1
	for i, th := range e.threads[:e.n] {
		w := getWorker()
		w.run = func() {
			defer e.recoverBody()
			body(th)
		}
		e.workers[i] = w
	}
	if e.exp != nil {
		e.resetExplore() // draw initial priorities before the heap is built
	}
	e.sched.reset(e.n)
	for cur := e.dispatch(); cur >= 0; {
		w := e.workers[cur]
		w.next()
		if w.run != nil {
			cur = e.handoff // suspended in switchTo
		} else {
			cur = e.dispatch() // the body returned
		}
	}
	workerPool.Lock()
	workerPool.free = append(workerPool.free, e.workers...)
	workerPool.Unlock()
	e.running = false
	if e.panicV != nil {
		panic(e.panicV)
	}
}

// recoverBody records the first panic of a body, except the unwinding of
// a wait that deadlock ended (see park).
func (e *DetEnv) recoverBody() {
	if r := recover(); r != nil && r != any(parkedExit{}) && e.panicV == nil {
		e.panicV = r
	}
}

// parkedExit is the panic value that unwinds a body whose wait deadlock
// ended.
type parkedExit struct{}

// worker is one virtual thread's coroutine. It runs run, clears it and
// suspends, over and over, so a worker outlives its Run and is reused by
// later ones, of any DetEnv.
type worker struct {
	next  func() (struct{}, bool) // resumes the coroutine
	yield func(struct{}) bool     // suspends it, from inside
	run   func()                  // the current Run's body; nil when idle
}

// workerPool holds the idle workers. Idle workers hold no body, so the
// pool keeps no DetEnv alive; it grows only to the most virtual threads
// running at once. It is not a sync.Pool: a worker the collector dropped
// would leave its goroutine suspended forever.
var workerPool struct {
	sync.Mutex
	free []*worker
}

func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.run()
		w.run = nil
		yield(struct{}{})
	}
}

// getWorker takes an idle worker from the pool, or starts a new one.
func getWorker() *worker {
	workerPool.Lock()
	defer workerPool.Unlock()
	if n := len(workerPool.free); n > 0 {
		w := workerPool.free[n-1]
		workerPool.free = workerPool.free[:n-1]
		return w
	}
	w := &worker{}
	w.next, _ = iter.Pull(w.loop) // never stopped: it lives on in the pool
	return w
}

// schedPoint preempts the calling virtual thread if it is no longer the
// minimum-(clock, id) runnable thread. The common case — still minimum —
// is a heap peek with no synchronization at all (and this function is small
// enough to inline into Access/Work/Yield); a switch suspends the thread's
// coroutine and hands the CPU to the new minimum thread through Run's loop.
func (e *DetEnv) schedPoint(t int) {
	if !e.running || t >= e.n {
		return
	}
	if e.exp != nil {
		e.explorePoint(t)
		return
	}
	ids := e.sched.ids
	if len(ids) == 0 {
		return // only runnable thread
	}
	m := ids[0]
	if ct, cm := e.clocks[t], e.clocks[m]; ct < cm || (ct == cm && t < int(m)) {
		return // still the minimum: keep running
	}
	e.switchTo(t)
}

// switchTo re-enters the scheduler from thread t. If the next thread due to
// run is t itself (possible when the threads ahead of it are all passive
// waiters whose steps dispatch executes inline), t simply keeps the CPU;
// otherwise t names the next thread in handoff and suspends, and Run's loop
// resumes that one. t stays suspended until it is scheduled — or, if t is a
// passive waiter, until its wait completes.
func (e *DetEnv) switchTo(t int) {
	e.sched.push(int32(t))
	next := e.dispatch()
	if int(next) == t {
		return
	}
	e.handoff = next
	e.workers[t].yield(struct{}{})
}

// dispatch drives the schedule until an active (non-waiting) thread is the
// minimum-(clock, id) runnable thread and pops it, executing passive
// waiters' spin-loop steps inline on the caller's stack along the way.
// Returns -1 when no runnable thread remains.
//
// A waiter whose step fails a check goes dormant: it leaves the heap and
// sleeps on its watched lines. A step only reads those lines and writes
// the waiter's own clock, counters, L1 model and jitter state, so while the
// lines are unchanged every skipped step would fail the same way and nobody
// could observe it; wake catches the waiter up on them before the first
// write to a watched line. Only a waiter whose key is past the frontier may sleep, so that
// catching it up to the frontier never runs a step that the schedule
// would not have run.
func (e *DetEnv) dispatch() int32 {
	for {
		ids := e.sched.ids
		if len(ids) == 0 {
			if len(e.dormant) != 0 {
				return e.deadlock()
			}
			return -1
		}
		id := ids[0]
		if w := &e.waits[id]; w.passive {
			if r := e.stepWait(int(id), w); r != stepDone {
				if r == stepBlocked && e.before(e.frontK, e.frontID, id) {
					e.sched.pop()
					e.dormant = append(e.dormant, id)
					e.mark(w, true)
				} else {
					e.sched.siftDown(0) // the step charged the waiter; restore order
				}
				continue
			}
			// The wait completed without a charge, so the thread is still
			// the minimum: schedule it now.
			w.passive = false
		}
		e.sched.pop()
		e.cur = id
		e.selected(id)
		return id
	}
}

// selected raises the frontier to thread id's current key, at which it has
// been selected to run.
func (e *DetEnv) selected(id int32) {
	if e.before(e.frontK, e.frontID, id) {
		e.frontK, e.frontID = e.key(id), id
	}
}

// key is thread id's scheduling key: its clock plus its exploration boost.
func (e *DetEnv) key(id int32) int64 {
	if e.boost != nil {
		return e.clocks[id] + e.boost[id]
	}
	return e.clocks[id]
}

// before reports whether (k, kid) orders before thread id's current key.
func (e *DetEnv) before(k int64, kid int32, id int32) bool {
	c := e.key(id)
	return k < c || (k == c && kid < id)
}

// mark sets or clears the watch bits of w's lines.
func (e *DetEnv) mark(w *detWait, on bool) {
	e.markLine(LineOf(w.addr), on)
	if w.kind == waitUntilEitherEq {
		e.markLine(LineOf(w.addr2), on)
	}
}

func (e *DetEnv) markLine(line uint32, on bool) {
	i := int(line / 64)
	for i >= len(e.watch) {
		e.watch = append(e.watch, 0)
	}
	if on {
		e.watch[i] |= 1 << (line % 64)
	} else {
		e.watch[i] &^= 1 << (line % 64)
	}
}

// wake runs just before line is written while some waiter is dormant.
// Every dormant waiter watching line catches up on the steps it skipped,
// up to the frontier (see catchUp), and rejoins the heap: it then sees the write at exactly the
// step it would have without sleeping. The frontier is the largest key
// selected to run so far: frontK/frontID record heap pops and an exploring
// scheduler's keep-running points, and the running thread's current key
// covers the plain scheduler's keep-running points without touching its
// fast path. The running thread's key alone is not enough: a forced
// preemption can redraw its boost below a key selected before it.
func (e *DetEnv) wake(line uint32) {
	if i := int(line / 64); i >= len(e.watch) || e.watch[i]&(1<<(line%64)) == 0 {
		return
	}
	k, kid := e.frontK, e.frontID
	if e.before(k, kid, e.cur) {
		k, kid = e.key(e.cur), e.cur
	}
	kept := e.dormant[:0]
	for _, id := range e.dormant {
		w := &e.waits[id]
		if LineOf(w.addr) != line && (w.kind != waitUntilEitherEq || LineOf(w.addr2) != line) {
			kept = append(kept, id)
			continue
		}
		e.catchUp(id, w, k, kid)
		e.sched.push(id)
		e.mark(w, false)
	}
	e.dormant = kept
	for _, id := range kept {
		e.mark(&e.waits[id], true) // restore bits shared with a woken waiter
	}
}

// catchUp runs dormant waiter id's deferred steps while its key is at or
// before (k, kid). The steps form rounds, each ending with a failed
// probe's yield. Without jitter a step's charges depend only on its phase,
// the watched lines (unchanged while the waiter sleeps) and the waiter's
// L1 sets for those lines, so once a round has repeated the round before
// it — the same phase, clock, counter and L1 changes (see
// l1Cache.repeats) — every later round repeats it too. catchUp then
// applies, in one step, the m whole rounds that end at or before key k,
// and steps the rest. Every skipped step would have run: a round ends with
// a yield, which charges, so each of its steps starts before k.
func (e *DetEnv) catchUp(id int32, w *detWait, k int64, kid int32) {
	t := int(id)
	c := e.caches[t]
	var setBuf [2]int
	sets := append(setBuf[:0], c.setOf(LineOf(w.addr)))
	if b := c.setOf(LineOf(w.addr2)); w.kind == waitUntilEitherEq && b != sets[0] {
		sets = append(sets, b)
	}
	// prev and last are the waiter at the ends of the last two rounds, and
	// e.snap holds its watched sets at last. Dormancy begins at a round's
	// end. Jittered charges never repeat, so a jittered waiter is only
	// stepped, as is one that has already skipped.
	var prev roundEnd
	last, rounds, steps, seek := e.roundEnd(t, w), 0, 0, e.jitter == nil
	for ; !e.before(k, kid, id); steps++ {
		r := e.stepWait(t, w)
		if r == stepDone {
			panic("memsim: dormant wait completed while its lines were unchanged")
		}
		if r != stepBlocked || !seek {
			continue
		}
		now := e.roundEnd(t, w)
		if d := now.clock - last.clock; rounds > 0 && d > 0 && now.repeats(&last, &prev) &&
			c.repeats(&e.snap, sets, prev.tick, last.tick) {
			if m := (k - e.key(id)) / d; m > 0 {
				e.clocks[t] += m * d
				e.stats[t].addTimes(now.stats.sub(last.stats), uint64(m))
				c.advance(sets, last.tick, uint64(m))
				seek = false
				continue
			}
		}
		rounds++
		prev, last = last, now
		c.save(&e.snap, sets)
	}
	e.maxSteps = max(e.maxSteps, steps)
}

// roundEnd is a dormant waiter's state at the end of a catch-up round.
type roundEnd struct {
	phase uint8
	clock int64
	tick  uint64 // the waiter's L1 tick
	stats ThreadStats
}

func (e *DetEnv) roundEnd(t int, w *detWait) roundEnd {
	return roundEnd{w.phase, e.clocks[t], e.caches[t].tick, e.stats[t]}
}

// repeats reports whether the round from last to r ended in the same phase
// and charged the same as the round from prev to last.
func (r *roundEnd) repeats(last, prev *roundEnd) bool {
	return r.phase == last.phase && r.clock-last.clock == last.clock-prev.clock &&
		r.stats.sub(last.stats) == last.stats.sub(prev.stats)
}

// deadlock runs when no thread is runnable but some waiters sleep: no
// thread is left to write the lines they watch. It records the report Run
// raises and hands the CPU to one sleeper, whose wait call then unwinds
// its body (see park); each sleeper retires the same way in turn.
func (e *DetEnv) deadlock() int32 {
	if e.panicV == nil {
		var b strings.Builder
		b.WriteString("memsim: deadlock:")
		for _, id := range e.dormant {
			w := &e.waits[id]
			fmt.Fprintf(&b, " thread %d waits for addr %d == %d", id, w.addr, w.want)
			if w.kind == waitUntilEitherEq {
				fmt.Fprintf(&b, " or addr %d == %d", w.addr2, w.want2)
			}
			b.WriteByte(';')
		}
		e.panicV = strings.TrimSuffix(b.String(), ";")
	}
	last := len(e.dormant) - 1
	id := e.dormant[last]
	e.dormant = e.dormant[:last]
	return id
}

// written runs before every write to line's word, metadata or last writer.
// It must stay small enough to inline into the store paths.
func (e *DetEnv) written(line uint32) {
	if len(e.dormant) != 0 {
		e.wake(line)
	}
}

// stepWait executes one scheduling quantum of a passive wait on behalf of
// thread t: the events between two scheduling points of the open-coded spin
// loop the wait replaces (one charge, plus the seqlock reads that precede
// it). It reports whether the wait goes on, failed a check (stepBlocked: the
// step yielded after a probe that, like every probe of the next round, must
// fail again while the watched lines stay unchanged), or is satisfied. The
// event stream is bit-identical to Thread.Load/Thread.Yield executing the
// same loop; only the coroutine switches between quanta are elided.
func (e *DetEnv) stepWait(t int, w *detWait) uint8 {
	switch w.phase {
	case phAccess1: // Thread.Load(addr) charges its access first
		e.accessBook(t, LineOf(w.addr), false)
		w.phase = phRead1
	case phRead1: // ... then seqlock-reads the word
		line := LineOf(w.addr)
		m1 := e.LoadMeta(line)
		if MetaLocked(m1) {
			e.yieldBook(t)
			return stepBlocked // retry the read after the yield, as Load does
		}
		v := e.LoadWord(w.addr)
		if e.LoadMeta(line) != m1 {
			e.yieldBook(t)
			return stepMore
		}
		if v == w.want {
			w.which = 0
			return stepDone
		}
		if w.kind == waitUntilEq {
			e.yieldBook(t) // failed round: Yield, then re-access addr
			w.phase = phAccess1
			return stepBlocked
		}
		// Either-shape: probe addr2 next, with no yield in between — the
		// loop this replaces falls straight through to its second Load.
		w.phase = phAccess2
	case phAccess2:
		e.accessBook(t, LineOf(w.addr2), false)
		w.phase = phRead2
	case phRead2:
		line := LineOf(w.addr2)
		m1 := e.LoadMeta(line)
		if MetaLocked(m1) {
			e.yieldBook(t)
			return stepBlocked
		}
		v := e.LoadWord(w.addr2)
		if e.LoadMeta(line) != m1 {
			e.yieldBook(t)
			return stepMore
		}
		if v == w.want2 {
			w.which = 1
			return stepDone
		}
		e.yieldBook(t) // both probes failed: Yield, restart at addr
		w.phase = phAccess1
		// Blocked only if the next round's probe of addr must fail too.
		if MetaLocked(e.LoadMeta(LineOf(w.addr))) || e.LoadWord(w.addr) != w.want {
			return stepBlocked
		}
	}
	return stepMore
}

// spinUntilEq parks worker t until a coherent load of a observes want,
// replaying the exact charge/yield stream of
//
//	for th.Load(a) != want { th.Yield() }
//
// The first access is charged here, on the calling thread, exactly where
// Thread.Load would charge it — before the scheduler is consulted — so
// equal-clock ties resolve identically.
func (e *DetEnv) spinUntilEq(t int, a Addr, want uint64) {
	e.accessBook(t, LineOf(a), false)
	e.waits[t] = detWait{passive: true, kind: waitUntilEq, phase: phRead1, addr: a, want: want}
	e.park(t)
}

// spinUntilEitherEq parks worker t until a load of a1 observes want1
// (returns 0) or, probed second within each round, a load of a2 observes
// want2 (returns 1).
func (e *DetEnv) spinUntilEitherEq(t int, a1 Addr, want1 uint64, a2 Addr, want2 uint64) int {
	e.accessBook(t, LineOf(a1), false)
	e.waits[t] = detWait{
		passive: true, kind: waitUntilEitherEq, phase: phRead1,
		addr: a1, want: want1, addr2: a2, want2: want2,
	}
	e.park(t)
	return e.waits[t].which
}

// park hands the CPU on until worker t's passive wait completes. A wait
// still pending when t gets the CPU back was ended by deadlock: t's body
// must not go on, so it unwinds with a parkedExit panic (running its
// deferred calls), the thread retires, and Run raises the deadlock report.
func (e *DetEnv) park(t int) {
	e.switchTo(t)
	if e.waits[t].passive {
		panic(parkedExit{})
	}
}

// page returns the arena page holding word index w, growing the arena as
// needed.
func (e *DetEnv) page(w uint32) *detPage {
	idx := int(w >> pageShift)
	for idx >= len(e.pages) {
		e.pages = append(e.pages, newDetPage())
	}
	return e.pages[idx]
}

// Alloc allocates a span of words.
func (e *DetEnv) Alloc(words int) Addr {
	if words <= 0 {
		panic("memsim: Alloc of non-positive span")
	}
	if words < len(e.freelist) {
		if fl := e.freelist[words]; len(fl) > 0 {
			a := fl[len(fl)-1]
			e.freelist[words] = fl[:len(fl)-1]
			return a
		}
	}
	// Keep spans within a line when they fit, and line-aligned when they
	// span lines, so capacity accounting and false sharing behave like a
	// real allocator with size classes.
	a := e.nextFree
	if words >= WordsPerLine || int(a%WordsPerLine)+words > WordsPerLine {
		if r := a % WordsPerLine; r != 0 {
			a += WordsPerLine - r
		}
	}
	e.nextFree = a + Addr(words)
	e.page(uint32(e.nextFree)) // ensure backing exists
	return a
}

// Free returns a span to the allocator.
func (e *DetEnv) Free(a Addr, words int) {
	for words >= len(e.freelist) {
		e.freelist = append(e.freelist, make([][]Addr, len(e.freelist))...)
	}
	e.freelist[words] = append(e.freelist[words], a)
}

// LoadMeta returns the metadata word of a line.
func (e *DetEnv) LoadMeta(line uint32) uint64 {
	return e.page(line << LineShift).metas[line%pageLines]
}

// CASMeta compares-and-swaps a line's metadata word.
func (e *DetEnv) CASMeta(line uint32, old, new uint64) bool {
	p := e.page(line << LineShift)
	i := line % pageLines
	if p.metas[i] != old {
		return false
	}
	e.written(line)
	p.metas[i] = new
	return true
}

// StoreMeta stores a line's metadata word on behalf of thread t. Releasing a
// line with a new version also refreshes t's cached copy and records t as
// the line's last writer for the coherence model.
func (e *DetEnv) StoreMeta(t int, line uint32, m uint64) {
	e.written(line)
	p := e.page(line << LineShift)
	p.metas[line%pageLines] = m
	if !MetaLocked(m) && t >= 0 && t < len(e.caches) {
		p.lastW[line%pageLines] = int32(t)
		e.caches[t].fill(line, MetaVersion(m))
	}
}

// LoadWord reads a word without cost accounting.
func (e *DetEnv) LoadWord(a Addr) uint64 {
	return e.page(uint32(a)).words[uint32(a)%pageWords]
}

// StoreWord writes a word without cost accounting.
func (e *DetEnv) StoreWord(a Addr, v uint64) {
	e.written(LineOf(a))
	e.page(uint32(a)).words[uint32(a)%pageWords] = v
}

// LastWriter returns the last thread to commit a write to line, or -1.
func (e *DetEnv) LastWriter(line uint32) int {
	return int(e.page(line << LineShift).lastW[line%pageLines])
}

// ReadClock returns the global version clock.
func (e *DetEnv) ReadClock() uint64 { return e.clock }

// TickClock increments and returns the global version clock.
func (e *DetEnv) TickClock() uint64 {
	e.clock++
	return e.clock
}

// Access charges thread t for one logical access to line and yields to the
// scheduler.
func (e *DetEnv) Access(t int, line uint32, write bool) {
	e.accessBook(t, line, write)
	e.schedPoint(t)
}

// accessBook performs the bookkeeping and cycle charge of Access without the
// scheduling point; the passive-wait step executor uses it directly.
func (e *DetEnv) accessBook(t int, line uint32, write bool) {
	st := &e.stats[t]
	if write {
		st.Stores++
	} else {
		st.Loads++
	}
	p := e.page(line << LineShift)
	li := line % pageLines
	ver := MetaVersion(p.metas[li])
	var cost int64
	if e.caches[t].lookup(line, ver) {
		cost = e.cost.L1Hit
		st.L1Hits++
	} else {
		cost = e.cost.L1Miss
		st.L1Misses++
		if lw := p.lastW[li]; lw >= 0 && int(lw) != t && int(lw) < e.n+1 {
			cost = e.cost.CoherenceMiss
			st.CoherenceMisses++
			if e.cost.socketOf(int(lw)) != e.cost.socketOf(t) {
				cost += e.cost.NUMAPenalty
				st.RemoteMisses++
			}
		}
		e.caches[t].fill(line, ver)
	}
	if write {
		e.written(line)
		p.lastW[li] = int32(t)
	}
	e.charge(t, cost)
}

// charge adds cost cycles (with SMT inflation and optional schedule-fuzzing
// jitter) to thread t's clock.
func (e *DetEnv) charge(t int, cost int64) {
	if t < e.n && e.cost.SMTPenaltyPct > 0 && e.cost.smtActive(t, e.n) {
		cost += cost * e.cost.SMTPenaltyPct / 100
	}
	if e.jitter != nil && cost > 0 {
		// splitmix64 step, deterministic per thread.
		e.jitter[t] += 0x9E3779B97F4A7C15
		z := e.jitter[t]
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		span := 2*e.cost.JitterPct + 1
		pct := int64(z%uint64(span)) - e.cost.JitterPct // in [-J, +J]
		cost += cost * pct / 100
		if cost < 1 {
			cost = 1
		}
	}
	e.clocks[t] += cost
}

// Work charges c cycles of local computation to thread t. It is a
// scheduling point so that effects across threads always execute in virtual
// time order.
func (e *DetEnv) Work(t int, c int64) {
	e.stats[t].WorkCycles += c
	e.charge(t, c)
	e.schedPoint(t)
}

// IdleUntil advances thread t's clock to deadline without charging
// execution costs: idle cycles model a thread waiting for external work
// (an open-loop arrival), so the SMT penalty and jitter — which model
// contended execution — do not apply. It is a scheduling point, so other
// threads' effects in the skipped span execute first, in virtual-time
// order.
func (e *DetEnv) IdleUntil(t int, deadline int64) {
	if deadline > e.clocks[t] {
		e.stats[t].IdleCycles += deadline - e.clocks[t]
		e.clocks[t] = deadline
	}
	e.schedPoint(t)
}

// Yield charges the yield cost and reschedules.
func (e *DetEnv) Yield(t int) {
	e.yieldBook(t)
	e.schedPoint(t)
}

// yieldBook is Yield's bookkeeping and charge without the scheduling point.
func (e *DetEnv) yieldBook(t int) {
	e.stats[t].Yields++
	e.charge(t, e.cost.YieldCost)
}

// Now returns thread t's virtual cycle clock.
func (e *DetEnv) Now(t int) int64 { return e.clocks[t] }

// Stats returns thread t's counters.
func (e *DetEnv) Stats(t int) *ThreadStats { return &e.stats[t] }

// ResetStats zeroes all per-thread counters and clocks (e.g. after a warmup
// phase); caches are also emptied.
func (e *DetEnv) ResetStats() {
	for i := range e.stats {
		e.stats[i].Reset()
		e.clocks[i] = 0
		e.caches[i].reset()
	}
}

// Cost returns the environment's cost parameters.
func (e *DetEnv) Cost() CostParams { return e.cost }

// detHeap is a binary min-heap of runnable thread ids ordered by
// (virtual clock, id). It is hand-rolled (rather than container/heap) so the
// per-access peek/push/pop path has no interface conversions and no
// allocations. The (clock, id) order is a strict total order, so the popped
// minimum is unique and the schedule does not depend on internal layout.
type detHeap struct {
	ids []int32
	env *DetEnv
}

func (h *detHeap) less(a, b int32) bool {
	ca, cb := h.env.clocks[a], h.env.clocks[b]
	if bs := h.env.boost; bs != nil {
		ca += bs[a]
		cb += bs[b]
	}
	if ca != cb {
		return ca < cb
	}
	return a < b
}

// reset refills the heap with ids 0..n-1 and restores heap order.
func (h *detHeap) reset(n int) {
	h.ids = h.ids[:0]
	for i := 0; i < n; i++ {
		h.ids = append(h.ids, int32(i))
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *detHeap) push(id int32) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.ids[i], h.ids[parent]) {
			break
		}
		h.ids[i], h.ids[parent] = h.ids[parent], h.ids[i]
		i = parent
	}
}

func (h *detHeap) pop() int32 {
	ids := h.ids
	top := ids[0]
	last := len(ids) - 1
	ids[0] = ids[last]
	h.ids = ids[:last]
	h.siftDown(0)
	return top
}

func (h *detHeap) siftDown(i int) {
	ids := h.ids
	n := len(ids)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && h.less(ids[r], ids[l]) {
			min = r
		}
		if !h.less(ids[min], ids[i]) {
			return
		}
		ids[i], ids[min] = ids[min], ids[i]
		i = min
	}
}
