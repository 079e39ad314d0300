// Package kvstore is a Bitcask-style persistent key/value engine built
// on the native HCF backend: a sharded in-memory hash index
// (internal/native/hashtable behind per-shard native frameworks) maps
// uint64 keys to offsets in a per-shard append-only log, and the
// combiner's RunMulti batch boundary doubles as the write-ahead log's
// group-commit boundary — one fsync per combined batch, however many
// puts and deletes the combiner claimed.
//
// That identity is the point of the package: flat combining batches
// conflicting operations behind one lock holder, and group commit
// batches log appends behind one fsync. They are the same amortization.
// The source paper's combining pipeline, pointed at durability, turns a
// ~145µs-per-op fsync tax into ~145µs per *batch*; under G concurrent
// writers the per-op flush cost drops by up to G with no queueing layer
// beyond the publication slots the framework already has.
//
// The lock holder does only what needs the lock. Each put or delete
// serializes and checksums its own record before it announces; the
// combiner reserves the batch's offsets, copies the records into the
// log back to back, fsyncs once and applies the index. A put whose new
// key the index has no slot for fails with ErrFull before anything is
// copied, so the log never holds a record the index could not take.
//
// Consistency model: an operation is acknowledged (its Execute returns)
// only after the batch containing it has been flushed, so every
// acknowledged write is durable. Index updates happen inside the same
// seqlock critical section after the batch has been copied into the
// log's page cache and fsynced, so a concurrent reader that observes a
// new offset can always read those bytes back (the copy is sequenced
// before the index store, and the reader's validated load orders after
// it), and it only ever observes writes that are already on disk — the
// same writes that are, or are about to be, acknowledged. With
// DisableSync there is no fsync, and a reader may observe a write that
// only the page cache holds; nor does a writer then wait for others to
// join its batch (the group-commit delay, commitDelay), since there is
// no flush for them to share. Crash recovery replays each shard log in
// order, truncating a torn tail at the first record that fails decoding,
// and rebuilds an index state-identical to the pre-crash one (IndexDump
// verifies this bit-for-bit in the tests and the harness figure).
//
// Measurement contract (Stats): flush counts and appended bytes are
// exact. A store that fsyncs times every batch and records its
// per-class depth. Under DisableSync a shard measures only its first
// batch and one batch in every 16 after it: there the clock reads and
// histogram updates would cost a large share of the batch itself, and
// they run under the shard's lock.
//
// Mapped log: on unix each shard log is mapped read-write and
// MAP_SHARED. A get copies its record out of the mapping, and a group
// commit copies its records in, neither with a syscall. The combiner grows
// the mapping (doubling, 1 MiB minimum) before the append that needs it
// and publishes it before any index offset inside it, so a reader that
// sees an offset sees a mapping that covers it; replaced mappings stay
// mapped until Close. An append past the file's end first extends the
// file to the mapping's length, so an open store's log file carries a
// zero tail; replay truncates one that a crash left, and Close
// truncates each file to its log. Durability through the mapping rests
// on fsync writing back pages dirtied through a shared mapping, as it
// does on Linux; it is argued and tested for Linux only. Every read is
// bounded by the shard's log size and checked (length, CRC, kind, key)
// before the value is copied out; no slice of the mapping leaves the
// package. A fault on the mapping (a log truncated under the store, EIO
// paging it in, a full disk under an append) comes back as an error,
// not a crash, and so does any operation after Close. Replay decodes
// from the same view. Elsewhere the view reads with ReadAt and appends
// with WriteAt.
package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hcf/internal/metrics"
	"hcf/internal/native"
	"hcf/internal/native/hashtable"
	"hcf/internal/route"
)

// epoch anchors the flush timer: time.Since(epoch) reads only the
// monotonic clock, about half the cost of time.Now.
var epoch = time.Now()

// Operation classes (indexes into each shard's policy slice).
const (
	// ClassGet looks a key up (read-only, speculates).
	ClassGet = iota
	// ClassPut inserts or updates a key (always combines: group commit).
	ClassPut
	// ClassDelete removes a key (always combines: group commit).
	ClassDelete
	numClasses
)

// Config configures a Store. The zero value is usable: 4 shards, 64K
// keys per shard, fsync on every group commit.
type Config struct {
	// Shards is the number of independent index+log shards (rounded up
	// to a power of two). 0 defaults to 4.
	Shards int
	// Capacity is the per-shard index capacity in keys. The index does
	// not grow; size it to at least 2x the expected live keys per shard.
	// 0 defaults to 1<<16.
	Capacity int
	// MaxHandles bounds concurrent handles per shard framework.
	// 0 defaults to max(8, 4*GOMAXPROCS).
	MaxHandles int
	// MaxValue caps value length in bytes. 0 defaults to 1<<20.
	MaxValue int
	// DisableSync skips the fsync at each group-commit boundary. Only
	// for tests and benchmarks that measure the batching machinery
	// itself; a crash can then lose acknowledged writes.
	DisableSync bool
}

func (c Config) normalize() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.Capacity <= 0 {
		c.Capacity = 1 << 16
	}
	if c.MaxHandles <= 0 {
		c.MaxHandles = 4 * runtime.GOMAXPROCS(0)
		if c.MaxHandles < 8 {
			c.MaxHandles = 8
		}
	}
	if c.MaxValue <= 0 {
		c.MaxValue = 1 << 20
	}
	return c
}

// getTryPrivate budgets read speculation for gets. Puts and deletes
// never speculate: holding the seqlock across an fsync would stall the
// shard, and solo commits defeat group commit.
const getTryPrivate = 8

// commitDelay bounds the group-commit delay in scheduler yields: a put-
// or delete-led combiner yields up to this many times before its claim
// sweep so concurrent writers can announce and share its flush. The
// wait stops early once every other handle on the shard has announced,
// or once it has cost its expected saving: the shard's recent
// write-batch time (a moving average) times the number of puts and
// deletes from other handles that recent batches took in, capped at one
// batch (see native.Policy.CombineDelay). Writers that pile up behind
// fsyncing batches (~100µs) keep the window open; a lone writer waits
// for nothing. It is 16 when the store syncs and no delay under
// DisableSync, where a batch has no fsync to share and the delay's
// yield and clock reads cost more than the rare joiner saves.
func (c Config) commitDelay() int {
	if c.DisableSync {
		return 0
	}
	return 16
}

// shard is one index+log pair with its own framework: combiners on
// different shards flush in parallel.
type shard struct {
	tab         *hashtable.Table
	fw          *native.Framework
	f           *os.File
	view        *logView
	disableSync bool
	maxValue    int
	// size is the log length == next append offset. Mutated only inside
	// the shard's seqlock critical sections; atomic so gauges can poll.
	size atomic.Int64
	// openSize is the log length replay found; size - openSize is what
	// this store appended.
	openSize int64
	// staging carries each put's and delete's serialized record from
	// its owner goroutine into the combiner, indexed by handle ID (Op
	// has only two uint64 operands). The publication slot's
	// release/acquire status transitions order these bytes between
	// owner and combiner.
	staging [][]byte
	// offs and recs are combiner-only scratch: each operation's assigned
	// offset (-1 for a refused put), and the batch's records in log
	// order.
	offs []int64
	recs [][]byte

	// Group-commit metrics. batchOps[c] is the number of class-c
	// operations per combined batch; flushNS is the wall time of the
	// append+fsync pair; flushes counts group commits (fsync calls when
	// syncing is enabled). Without fsync only sampled batches feed the
	// histograms (see measured); flushes is always exact.
	batchOps [numClasses]metrics.Histogram
	flushNS  metrics.Histogram
	flushes  atomic.Uint64
	// batches counts runBatch calls; it picks the sampled ones.
	// Combiner-only.
	batches uint64
}

// sampleEvery is the no-sync measurement interval: a shard that does
// not fsync times and records one batch in every sampleEvery, starting
// with its first.
const sampleEvery = 16

// putFull is a put's result when the index has no slot for its new key
// (ErrFull); a put otherwise returns PackBool(replaced).
const putFull = 2

// Store is the engine: open it with Open, take one Handle per goroutine.
type Store struct {
	cfg    Config
	dir    string
	ring   *route.Ring
	shards []*shard
	// closed is set by Close; later puts and deletes fail with errClosed
	// instead of entering a combiner whose log is gone.
	closed atomic.Bool
}

var errClosed = errors.New("kvstore: store is closed")

// ErrFull is a put of a new key into a shard whose index holds
// Config.Capacity live keys (rounded up to a power of two). The put
// writes nothing: the store stays as it was and reopens.
var ErrFull = errors.New("kvstore: index full")

// errReservedKey refuses the keys above hashtable.MaxKey: the index would
// encode them as its empty and deleted markers.
var errReservedKey = fmt.Errorf("kvstore: keys above %#x are reserved", uint64(hashtable.MaxKey))

// Open creates or re-opens a store rooted at dir. Existing shard logs
// are replayed to rebuild the in-memory index; a torn tail (crash
// mid-append) is truncated at the first corrupt record. The shard count
// is part of the on-disk layout: reopen with the same Config.Shards. A
// log holding more distinct live keys than Config.Capacity fails Open.
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	ring, err := route.NewUniform(cfg.Shards, cfg.Shards, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	s := &Store{
		cfg:    cfg,
		dir:    dir,
		ring:   ring,
		shards: make([]*shard, cfg.Shards),
	}
	for i := range s.shards {
		sh, err := openShard(filepath.Join(dir, fmt.Sprintf("shard-%03d.log", i)), cfg)
		if err != nil {
			for _, prev := range s.shards[:i] {
				prev.view.close()
				prev.f.Close()
			}
			return nil, err
		}
		s.shards[i] = sh
	}
	return s, nil
}

func openShard(path string, cfg Config) (*shard, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	sh := &shard{
		tab:         hashtable.New(cfg.Capacity),
		f:           f,
		view:        newLogView(f),
		staging:     make([][]byte, cfg.MaxHandles),
		disableSync: cfg.DisableSync,
		maxValue:    cfg.MaxValue,
	}
	end, err := sh.view.replay(func(kind byte, key uint64, off int64, _ []byte) error {
		switch kind {
		case kindPut:
			if _, ok := sh.tab.TryPut(key, uint64(off)); !ok {
				return fmt.Errorf("kvstore: replay %s: more live keys than the index holds (Capacity %d, %d slots)",
					filepath.Base(path), cfg.Capacity, sh.tab.Capacity())
			}
		case kindDelete:
			sh.tab.Delete(key)
		}
		return nil
	})
	if err != nil {
		sh.view.close()
		f.Close()
		return nil, err
	}
	sh.size.Store(end)
	sh.openSize = end
	pol := make([]native.Policy, numClasses)
	pol[ClassGet] = native.Policy{
		Name: "Get", ReadOnly: true,
		TryPrivate: getTryPrivate, MaxBatch: cfg.MaxHandles,
		Run:      func(op native.Op) uint64 { return sh.tab.Get(op.A) },
		RunMulti: sh.runBatch,
	}
	pol[ClassPut] = native.Policy{
		// TryPrivate 0: a put that won the CAS would hold the shard's
		// seqlock across a solo fsync; announcing instead routes every
		// write through the combiner's group commit. CombineDelay is
		// the commit delay (none under DisableSync) — a write-led
		// combiner waits a few yields, never longer than the batch time
		// other writers' joining is expected to save, so concurrent
		// writers announce and share its flush.
		Name: "Put", TryPrivate: 0, MaxBatch: cfg.MaxHandles,
		CombineDelay: cfg.commitDelay(),
		Run:          sh.applyOne,
		RunMulti:     sh.runBatch,
	}
	pol[ClassDelete] = native.Policy{
		Name: "Delete", TryPrivate: 0, MaxBatch: cfg.MaxHandles,
		CombineDelay: cfg.commitDelay(),
		Run:          sh.applyOne,
		RunMulti:     sh.runBatch,
	}
	fw, err := native.New(native.Config{Policies: pol, MaxHandles: cfg.MaxHandles})
	if err != nil {
		sh.view.close()
		f.Close()
		return nil, err
	}
	sh.fw = fw
	return sh, nil
}

// runBatch is the shared RunMulti for all three classes: the combiner
// claims any announced mix of gets, puts and deletes (help-all), and
// this function turns the batch boundary into the group-commit boundary.
// Owners have already serialized their records into staging, so only
// the copy, the fsync and the index apply run here.
//
// Order of effects, and why it is safe:
//  1. give each put and delete its final log offset, in slot order; a
//     put whose new key the index would have no slot for gets ErrFull
//     and no offset;
//  2. grow the log's mapping to cover the new end, publishing it before
//     any offset inside it — a failed mmap leaves the log and the index
//     untouched;
//  3. append the records (on unix copies into the mapping, extending
//     the file first when they run past it) — after this, any index
//     offset handed out below is readable through the mapping;
//  4. one fsync (unless disabled) — the flush whose cost the whole batch
//     shares;
//  5. apply index updates and resolve gets in slot order. Gets batched
//     alongside a put of the same key legally linearize before or after
//     it depending on slot order — any order is correct for concurrent
//     operations.
//
// Results publish (and Execute returns) only after this function — so
// acknowledgement implies durability (step 4 precedes it).
func (sh *shard) runBatch(ops []native.Op, res []uint64, done []bool) {
	if cap(sh.offs) < len(ops) {
		sh.offs = make([]int64, len(ops))
	}
	offs := sh.offs[:len(ops)]
	recs := sh.recs[:0]
	check := sh.mayOverflow(ops)
	live := sh.tab.Len()
	base := sh.size.Load()
	end := base
	for i, op := range ops {
		if op.Class == ClassGet {
			continue
		}
		if check && !sh.fits(ops[:i], offs[:i], op, &live) {
			offs[i] = -1
			continue
		}
		rec := sh.staging[op.B]
		offs[i] = end
		end += int64(len(rec))
		recs = append(recs, rec)
	}
	measured := !sh.disableSync || sh.batches%sampleEvery == 0
	sh.batches++
	if len(recs) > 0 {
		if err := sh.view.grow(end); err != nil {
			panic(err)
		}
		var t0 time.Duration
		if measured {
			t0 = time.Since(epoch)
		}
		if err := sh.view.append(base, recs); err != nil {
			panic(fmt.Sprintf("kvstore: log append failed: %v", err))
		}
		if !sh.disableSync {
			if err := sh.f.Sync(); err != nil {
				panic(fmt.Sprintf("kvstore: log fsync failed: %v", err))
			}
		}
		if measured {
			sh.flushNS.Record(int64(time.Since(epoch) - t0))
		}
		sh.flushes.Add(1)
		sh.size.Store(end)
	}
	var perClass [numClasses]int64
	for i, op := range ops {
		perClass[op.Class]++
		switch {
		case op.Class == ClassGet:
			res[i] = sh.tab.Get(op.A)
		case offs[i] < 0:
			res[i] = putFull
		case op.Class == ClassPut:
			_, replaced := native.Unpack(sh.tab.Put(op.A, uint64(offs[i])))
			res[i] = native.PackBool(replaced)
		default:
			res[i] = sh.tab.Delete(op.A)
		}
		done[i] = true
	}
	if measured {
		for c, n := range perClass {
			if n > 0 {
				sh.batchOps[c].Record(n)
			}
		}
	}
	sh.recs = recs[:0]
}

// mayOverflow reports whether the puts in ops could fill the shard's
// index: only then does runBatch check each put with fits.
func (sh *shard) mayOverflow(ops []native.Op) bool {
	puts := 0
	for _, op := range ops {
		if op.Class == ClassPut {
			puts++
		}
	}
	return sh.tab.Len()+puts > sh.tab.Capacity()
}

// fits reports whether the write op, which follows prev (with their
// offsets) in the batch, leaves the index within its capacity, and
// tracks in live the live keys the batch leaves so far. Only a put of
// a key that is absent at that point takes a slot, and it fits while a
// slot is free; the index reuses deleted slots.
func (sh *shard) fits(prev []native.Op, prevOffs []int64, op native.Op, live *int) bool {
	present := native.UnpackBool(sh.tab.Get(op.A))
	for i := len(prev) - 1; i >= 0; i-- {
		if prev[i].Class != ClassGet && prev[i].A == op.A && prevOffs[i] >= 0 {
			present = prev[i].Class == ClassPut
			break
		}
	}
	switch {
	case op.Class == ClassDelete:
		if present {
			*live--
		}
	case present:
	case *live < sh.tab.Capacity():
		*live++
	default:
		return false
	}
	return true
}

// applyOne is the single-operation fallback (applyEach path). It is a
// degenerate batch: one record, one append, one flush.
func (sh *shard) applyOne(op native.Op) uint64 {
	ops := [1]native.Op{op}
	var res [1]uint64
	var done [1]bool
	sh.runBatch(ops[:], res[:], done[:])
	return res[0]
}

// Handle is a per-goroutine participant: one native handle per shard.
// Handles are not safe for concurrent use; take one per goroutine.
type Handle struct {
	s  *Store
	hs []*native.Handle
}

// Handle registers a participant. Release it when the goroutine is done.
func (s *Store) Handle() (*Handle, error) {
	h := &Handle{s: s, hs: make([]*native.Handle, len(s.shards))}
	for i, sh := range s.shards {
		nh, err := sh.fw.Handle()
		if err != nil {
			for _, prev := range h.hs[:i] {
				prev.Release()
			}
			return nil, err
		}
		h.hs[i] = nh
	}
	return h, nil
}

// MustHandle is Handle for tests and benchmarks: it panics on exhaustion.
func (s *Store) MustHandle() *Handle {
	h, err := s.Handle()
	if err != nil {
		panic(err)
	}
	return h
}

// Release returns the handle's framework slots.
func (h *Handle) Release() {
	for _, nh := range h.hs {
		nh.Release()
	}
}

// shardOf routes key through the shared internal/route consistent-hash
// ring (one slot per shard: the owner is the top log2(Shards) bits of
// the Fibonacci hash), so the sim-backed sharded engine and the KV
// store use one audited key→shard function.
//
// Log-compatibility note: the key→shard map is part of the on-disk
// layout. This mapping replaced an earlier private one that used bits
// [40, 40+log2(Shards)) of the same Fibonacci product; a store whose
// logs were written under that mapping must be migrated before being
// served by this version — replay every shard log and re-Put each live
// key through a freshly Opened store (single-shard stores need no
// migration: both mappings are the constant 0). Stores created by this
// version re-open unchanged; the recovery replay and the index it
// rebuilds are bit-identical because writes and reads share s.ring.
func (s *Store) shardOf(key uint64) int {
	return s.ring.Owner(key)
}

// Get returns the current value of key, or ok=false if absent. The
// index lookup speculates (validated optimistic read); the value bytes
// are then copied out of the log's mapping outside any critical section
// — offsets are immutable once written, so the read needs no further
// coordination. A log that cannot be read (truncated under the store,
// an I/O error paging it in, a closed store) is an error, never a crash.
func (h *Handle) Get(key uint64) (val []byte, ok bool, err error) {
	si := h.s.shardOf(key)
	sh := h.s.shards[si]
	off, ok := native.Unpack(h.hs[si].Execute(native.Op{Class: ClassGet, A: key}))
	if !ok {
		return nil, false, nil
	}
	val, err = sh.view.value(int64(off), sh.size.Load(), key)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Put durably stores key=val, returning whether a previous value was
// replaced. It returns only after the group commit containing the write
// has been flushed. A key above hashtable.MaxKey is an error, and so is
// a new key when its shard's index is full (ErrFull).
func (h *Handle) Put(key uint64, val []byte) (replaced bool, err error) {
	if h.s.closed.Load() {
		return false, errClosed
	}
	if key > hashtable.MaxKey {
		return false, errReservedKey
	}
	si := h.s.shardOf(key)
	sh := h.s.shards[si]
	if len(val) > sh.maxValue {
		return false, fmt.Errorf("kvstore: value length %d exceeds cap %d", len(val), sh.maxValue)
	}
	id := h.hs[si].ID()
	sh.staging[id] = appendRecord(sh.staging[id][:0], kindPut, key, val)
	r := h.hs[si].Execute(native.Op{Class: ClassPut, A: key, B: uint64(id)})
	if r == putFull {
		return false, ErrFull
	}
	return native.UnpackBool(r), nil
}

// Delete durably removes key, returning whether it was present. Like
// Put, it returns only after its group commit has been flushed, and a
// key above hashtable.MaxKey is an error.
func (h *Handle) Delete(key uint64) (found bool, err error) {
	if h.s.closed.Load() {
		return false, errClosed
	}
	if key > hashtable.MaxKey {
		return false, errReservedKey
	}
	si := h.s.shardOf(key)
	sh := h.s.shards[si]
	id := h.hs[si].ID()
	sh.staging[id] = appendRecord(sh.staging[id][:0], kindDelete, key, nil)
	r := h.hs[si].Execute(native.Op{Class: ClassDelete, A: key, B: uint64(id)})
	return native.UnpackBool(r), nil
}

// Close truncates each shard log file to its log (dropping the zero
// tail appends leave), then syncs, unmaps and closes it. Callers must be
// quiescent; a later Get, Put or Delete returns an error.
func (s *Store) Close() error {
	s.closed.Store(true)
	var first error
	for _, sh := range s.shards {
		if err := sh.f.Truncate(sh.size.Load()); err != nil && first == nil {
			first = fmt.Errorf("kvstore: truncate log: %w", err)
		}
		if err := sh.f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := sh.view.close(); err != nil && first == nil {
			first = err
		}
		if err := sh.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len returns the number of live keys across all shards. Safe to poll
// concurrently (per-shard counts are atomic; the sum is a snapshot).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.tab.Len()
	}
	return n
}

// ShardStat is one shard's occupancy gauge set.
type ShardStat struct {
	Live       int   // live keys in the index
	Tombstones int   // dead index cells awaiting compaction
	LogBytes   int64 // shard log length
}

// Stats is a snapshot of the engine's group-commit behaviour.
//
// Flushes and AppendedBytes are exact. BatchOps and FlushNanos are
// exact for a store that fsyncs. Under DisableSync they are a sample:
// each shard measures its first batch and one batch in every 16 after
// it, so their counts are about 1/16 of the batches and their
// quantiles estimate the whole distribution. Count writes per flush
// from the operations issued, not from BatchOps sums.
type Stats struct {
	Shards []ShardStat
	// Flushes counts group commits (one append+fsync pair each).
	Flushes uint64
	// AppendedBytes is the total bytes this store appended to all logs
	// since Open (what replay found is not counted).
	AppendedBytes uint64
	// BatchOps[c] is the distribution of class-c operations per combined
	// batch — the group-commit depth puts actually achieved.
	BatchOps [numClasses]metrics.HistogramSnapshot
	// FlushNanos is the distribution of append+fsync wall times.
	FlushNanos metrics.HistogramSnapshot
}

// Stats snapshots occupancy and group-commit metrics. Safe to call
// concurrently with operations (histograms are atomic; counts are
// per-shard snapshots).
func (s *Store) Stats() Stats {
	st := Stats{Shards: make([]ShardStat, len(s.shards))}
	for i, sh := range s.shards {
		st.Shards[i] = ShardStat{
			Live:       sh.tab.Len(),
			Tombstones: sh.tab.Tombstones(),
			LogBytes:   sh.size.Load(),
		}
		st.Flushes += sh.flushes.Load()
		st.AppendedBytes += uint64(st.Shards[i].LogBytes - sh.openSize)
		for c := range sh.batchOps {
			snap := sh.batchOps[c].Snapshot()
			st.BatchOps[c].Merge(&snap)
		}
		fs := sh.flushNS.Snapshot()
		st.FlushNanos.Merge(&fs)
	}
	return st
}

// NativeMetrics merges every shard framework's combining counters
// (native.Framework.Metrics). Like those, read it only while no
// operations are in flight; Stats is the concurrent-safe view.
func (s *Store) NativeMetrics() native.Metrics {
	var m native.Metrics
	for _, sh := range s.shards {
		sm := sh.fw.Metrics()
		m.Merge(&sm)
	}
	return m
}

// IndexDump serializes the entire in-memory index deterministically:
// shard by shard, (key, offset) pairs in ascending key order. Two
// stores whose indexes are state-identical produce bit-identical dumps,
// which is how the recovery tests and the harness figure verify that
// replay rebuilds exactly the pre-crash index. Callers must be
// quiescent.
func (s *Store) IndexDump() []byte {
	var out []byte
	pairs := make([][2]uint64, 0, 1024)
	for i, sh := range s.shards {
		pairs = pairs[:0]
		sh.tab.Range(func(k, v uint64) bool {
			pairs = append(pairs, [2]uint64{k, v})
			return true
		})
		sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
		out = append(out, fmt.Sprintf("shard %d: %d keys\n", i, len(pairs))...)
		for _, p := range pairs {
			out = append(out, fmt.Sprintf("%d %d\n", p[0], p[1])...)
		}
	}
	return out
}
