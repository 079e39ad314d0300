// Package hcf is a Go implementation of the HTM-assisted Combining
// Framework from "Transactional Lock Elision Meets Combining" (Kogan & Lev,
// PODC 2017), together with the substrate it needs — a simulated-HTM
// transactional engine over a deterministic multicore memory simulator —
// and the five baseline synchronization engines the paper compares against
// (Lock, TLE, FC, SCM and naive TLE+FC).
//
// # Programming model
//
// You write your data structure as ordinary sequential code against the
// small Ctx interface (Load/Store/Alloc/Free over simulated memory), wrap
// each operation in an Op, and pick an engine. HCF runs every operation
// through up to four phases — speculative private attempts, announced
// speculative attempts, speculative combining of announced operations, and
// a pessimistic combining pass under the data-structure lock — without
// requiring you to reason about concurrency. Per-operation-class policies
// decide how many speculation attempts each phase gets, which publication
// array announces the class, which announced operations a combiner adopts
// (ShouldHelp), and how batches are combined or eliminated (RunMulti).
//
// # Quick start
//
//	env := hcf.NewDetEnv(8)                     // 8 simulated threads
//	fw, err := hcf.New(env, hcf.Config{
//		Policies: []hcf.Policy{{
//			TryPrivateTrials:   2,
//			TryVisibleTrials:   3,
//			TryCombiningTrials: 5,
//		}},
//	})
//	...
//	env.Run(func(th *hcf.Thread) {
//		res := fw.Execute(th, myOp)             // linearizable, exactly once
//		...
//	})
//
// See examples/ for complete programs and internal/harness for the
// experiment suite that regenerates the paper's figures.
package hcf

import (
	"hcf/internal/adaptive"
	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/engines"
	"hcf/internal/htm"
	"hcf/internal/kvstore"
	"hcf/internal/locks"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/shard"
	"hcf/metrics"
	"hcf/native"
	"hcf/serve"
	"hcf/tracing"
)

// Core memory-model types.
type (
	// Addr is a word address in simulated memory; 0 is the nil pointer.
	Addr = memsim.Addr
	// Ctx is the access interface sequential data-structure code uses. It
	// is implemented by *Thread (direct access) and by transactions.
	Ctx = memsim.Ctx
	// Env is a simulated execution environment (deterministic or real).
	Env = memsim.Env
	// Thread is a per-thread handle on an Env.
	Thread = memsim.Thread
	// CostParams configures the deterministic simulator's cycle model.
	CostParams = memsim.CostParams
	// ThreadStats counts a thread's memory behaviour.
	ThreadStats = memsim.ThreadStats
)

// NilAddr is the simulated null pointer.
const NilAddr = memsim.NilAddr

// WordsPerLine is the number of 64-bit words per simulated cache line.
const WordsPerLine = memsim.WordsPerLine

// NewDetEnv creates a deterministic simulated environment with the given
// number of worker threads and the default one-socket machine model.
func NewDetEnv(threads int) *memsim.DetEnv {
	return memsim.NewDet(memsim.DetConfig{Threads: threads})
}

// NewDetEnvWithCost creates a deterministic environment with a custom cycle
// cost model (e.g. memsim.TwoSocketCostParams for NUMA experiments).
func NewDetEnvWithCost(threads int, cost CostParams) *memsim.DetEnv {
	return memsim.NewDet(memsim.DetConfig{Threads: threads, Cost: cost})
}

// NewRealEnv creates a real-concurrency environment (goroutines + atomics)
// for wall-clock benchmarking and race-detector stress testing.
func NewRealEnv(threads int) *memsim.RealEnv {
	return memsim.NewReal(memsim.RealConfig{Threads: threads})
}

// Framework types.
type (
	// Op is one data-structure operation (sequential code + class).
	Op = engine.Op
	// Engine applies operations with some synchronization discipline; all
	// six engines in this module implement it.
	Engine = engine.Engine
	// Metrics aggregates engine activity counters.
	Metrics = engine.Metrics
	// CombineFunc combines/eliminates a batch of operations (runMulti).
	CombineFunc = engine.CombineFunc
	// ShouldHelpFunc selects which announced operations a combiner adopts.
	ShouldHelpFunc = engine.ShouldHelpFunc

	// Policy configures HCF's handling of one operation class.
	Policy = core.Policy
	// Config configures a Framework.
	Config = core.Config
	// Framework is the HCF engine itself.
	Framework = core.Framework
	// Phase identifies where an operation completed.
	Phase = core.Phase

	// HTMConfig tunes the simulated hardware transactional memory.
	HTMConfig = htm.Config
	// AbortReason classifies transaction aborts.
	AbortReason = htm.Reason

	// Lock is a mutual-exclusion lock over simulated memory whose state
	// transactions can subscribe to.
	Lock = locks.Lock

	// BaselineOptions configures the baseline engines.
	BaselineOptions = engines.Options
)

// The four HCF phases (paper §2.1).
const (
	PhaseTryPrivate       = core.PhaseTryPrivate
	PhaseTryVisible       = core.PhaseTryVisible
	PhaseTryCombining     = core.PhaseTryCombining
	PhaseCombineUnderLock = core.PhaseCombineUnderLock
)

// New builds an HCF framework over env.
func New(env Env, cfg Config) (*Framework, error) { return core.New(env, cfg) }

// Sharded scaling layer: N independent frameworks over one Env, each
// keyed operation routed to the shard its key's consistent-hash ring
// owner names. Independent combiners run in parallel on disjoint shards;
// operations without a key span shards and take a pessimistic path that
// acquires all shard locks in canonical order (see internal/shard).
type (
	// Sharded is N Frameworks behind one Engine.
	Sharded = shard.Sharded
	// ShardedConfig configures a Sharded engine.
	ShardedConfig = shard.Config
)

// NewSharded builds a sharded HCF engine over env.
func NewSharded(env Env, cfg ShardedConfig) (*Sharded, error) { return shard.New(env, cfg) }

// Elastic sharding: the same scaling layer with a live consistent-hash
// topology instead of a fixed router. Keyed operations route through an
// epoch-published ring (internal/route); shards split and merge online
// via the all-locks cross-shard path, with in-flight operations
// re-validating ownership at their linearization point; a Rebalancer
// closes the loop from per-shard load evidence to Split/Merge decisions
// with a deterministic journal. See DESIGN.md ("Elastic sharding").
type (
	// Elastic is a Sharded engine with an online-resharding topology.
	Elastic = shard.Elastic
	// ElasticConfig configures an Elastic engine.
	ElasticConfig = shard.ElasticConfig
	// KeyFunc extracts an operation's routing key (ok=false routes the
	// operation down the all-locks cross-shard path).
	KeyFunc = shard.KeyFunc
	// MigrateFunc moves re-owned keys between shard structures during a
	// split or merge, under every shard's lock.
	MigrateFunc = shard.MigrateFunc
	// Rebalancer is the hot-shard feedback loop over an Elastic engine.
	Rebalancer = shard.Rebalancer
	// RebalanceConfig tunes the rebalancer's evidence thresholds.
	RebalanceConfig = shard.RebalanceConfig
	// RebalanceDecision is one journaled rebalancer decision.
	RebalanceDecision = shard.RebalanceDecision
	// Topology is a point-in-time view of an Elastic engine's routing.
	Topology = shard.Topology
	// Ring is an immutable consistent-hash slot table.
	Ring = route.Ring
	// RingSnapshot is a Ring's plain-data (JSON-friendly) view.
	RingSnapshot = route.Snapshot
)

// NewElastic builds an elastic sharded HCF engine over env.
func NewElastic(env Env, cfg ElasticConfig) (*Elastic, error) { return shard.NewElastic(env, cfg) }

// NewRing builds a consistent-hash ring with the first `shards` of
// `maxShards` provisioned shards active, spread over `slots` virtual
// slots (0 = route.DefaultSlots). Use it to place data consistently
// with a Key-routed Sharded engine or an Elastic engine's initial
// topology.
func NewRing(shards, slots, maxShards int) (*Ring, error) {
	return route.NewUniform(shards, slots, maxShards)
}

// NewRebalancer attaches a hot-shard feedback loop to an Elastic
// engine. Drive Step from one thread at fixed simulated instants; the
// decision journal is then byte-identical per seed.
func NewRebalancer(e *Elastic, cfg RebalanceConfig) *Rebalancer { return shard.NewRebalancer(e, cfg) }

// Native wall-clock backend: the same speculation-then-combining pipeline
// re-targeted at direct Go atomics — a seqlock-validated optimistic read
// path standing in for HTM, budgeted CAS-acquire write speculation, and
// flat combining through cache-padded publication slots with parked
// waiters. Policies carry the same per-class knobs as the simulated
// framework (TryPrivate budget, MaxBatch, ShouldHelp, RunMulti). See the
// hcf/native package and docs/PERFORMANCE.md ("Native backend").
type (
	// NativeFramework is the native HCF engine.
	NativeFramework = native.Framework
	// NativeHandle is a per-goroutine participant handle.
	NativeHandle = native.Handle
	// NativeOp is one native data-structure operation.
	NativeOp = native.Op
	// NativePolicy configures one native operation class.
	NativePolicy = native.Policy
	// NativeConfig configures a NativeFramework.
	NativeConfig = native.Config
	// NativeMetrics aggregates native framework counters.
	NativeMetrics = native.Metrics
	// NativeMap is the ready-made native concurrent uint64->uint64 map.
	NativeMap = native.Map
	// NativePQueue is the ready-made native concurrent priority queue.
	NativePQueue = native.PQueue
)

// NewNative builds a native (wall-clock, direct-atomics) HCF framework.
func NewNative(cfg NativeConfig) (*NativeFramework, error) { return native.New(cfg) }

// NewNativeMap builds a native combining hash map with at least capacity
// slots.
func NewNativeMap(capacity int) (*NativeMap, error) { return native.NewMap(capacity) }

// NewNativePQueue builds a native combining priority queue holding at
// most capacity keys.
func NewNativePQueue(capacity int) (*NativePQueue, error) { return native.NewPQueue(capacity) }

// Persistent KV engine: a Bitcask-style store where a sharded native
// HCF hash index maps keys to offsets in per-shard append-only logs,
// and the combiner's batch boundary doubles as the write-ahead log's
// group-commit boundary — one append + one fsync per combined batch.
// Combining batches conflicting operations behind one lock holder;
// group commit batches appends behind one fsync: the same amortization,
// which is the source paper's claim applied to durability. Acknowledged
// writes are durable; crash recovery replays the logs and truncates a
// torn tail (see internal/kvstore's package comment for the model).
type (
	// KV is the persistent key/value engine.
	KV = kvstore.Store
	// KVHandle is a per-goroutine participant handle on a KV.
	KVHandle = kvstore.Handle
	// KVConfig configures a KV: shard count, per-shard index capacity,
	// handle and value limits, and DisableSync. Gets speculate up to 8
	// times before they announce. A store that fsyncs makes each group
	// commit wait up to 16 yields for more writers (cut short when
	// nobody else can join or the wait has cost the batch time that
	// joining writers are expected to save, which is zero while batches
	// take in none); under DisableSync there is no flush to share, and
	// no writer waits.
	KVConfig = kvstore.Config
	// KVStats snapshots a KV's group-commit and occupancy metrics.
	// Flushes and appended bytes are exact; without fsync (DisableSync)
	// the batch-depth and flush-time histograms sample each shard's
	// first batch and one in every 16 after it.
	KVStats = kvstore.Stats
)

// NewKV opens (creating or recovering) a persistent KV store rooted at
// dir. Take one KVHandle per goroutine with its Handle method.
func NewKV(dir string, cfg KVConfig) (*KV, error) { return kvstore.Open(dir, cfg) }

// ErrKVFull is a KV put of a new key into a shard whose index is full
// (KVConfig.Capacity live keys): the put writes nothing.
var ErrKVFull = kvstore.ErrFull

// Adaptive tuning (the paper's §2.4 future-work mechanism): a Tuner
// re-tunes a Framework's per-class phase policies in epochs. From the
// framework's own phase-completion profile alone it shifts speculation
// budgets; with the metrics recorder's latency/outcome evidence and the
// trace collector's per-class abort attribution attached it also skips
// TryPrivate for always-conflicting classes, promotes conflict-free
// classes out of combining, revives parked speculation via scheduled
// probes, spreads classes across publication arrays and resizes batch
// bounds. Every change is appended to a lock-free decision Journal
// together with the evidence that triggered it (see hcfbench -fig autotune).
type (
	// Tuner rewrites a Framework's per-class policies in epochs.
	Tuner = adaptive.Tuner
	// TunerConfig sets the tuner's thresholds and caps.
	TunerConfig = adaptive.TunerConfig
	// TunerJournal is the append-only decision log.
	TunerJournal = adaptive.Journal
	// TunerDecision is one journaled policy change.
	TunerDecision = adaptive.Decision
	// TunerEvidence is the observation window a decision cites.
	TunerEvidence = adaptive.Evidence
)

// NewTuner builds an evidence-driven policy autotuner for fw. rec (a
// *metrics.Recorder, see the hcf/metrics package) supplies per-class
// latency histograms and outcome counters; col (a *tracing.Collector)
// supplies per-class abort attribution. Either may be nil — the tuner
// degrades to phase-completion evidence. Call Step periodically from one
// thread (or a dedicated tuner thread).
func NewTuner(fw *Framework, rec *metrics.Recorder, col *tracing.Collector, cfg TunerConfig) *Tuner {
	return adaptive.NewTuner(fw, rec, col, cfg)
}

// Baseline engine constructors (§3's comparison points).
var (
	// NewLockEngine runs every operation under the lock.
	NewLockEngine = engines.NewLock
	// NewTLE builds transactional lock elision.
	NewTLE = engines.NewTLE
	// NewFC builds classic flat combining.
	NewFC = engines.NewFC
	// NewSCM builds TLE with auxiliary-lock conflict management.
	NewSCM = engines.NewSCM
	// NewTLEFC builds the naive TLE-then-FC combination.
	NewTLEFC = engines.NewTLEFC
)

// Lock constructors.
var (
	// NewTATAS allocates a test-and-test-and-set lock.
	NewTATAS = locks.NewTATAS
	// NewTicket allocates a starvation-free FIFO ticket lock.
	NewTicket = locks.NewTicket
)

// Combining helpers.
var (
	// ApplyEach runs each operation's own code (no combining).
	ApplyEach = engine.ApplyEach
	// HelpAll makes a combiner adopt every announced operation.
	HelpAll = engine.HelpAll
	// HelpNone makes a combiner apply only its own operation.
	HelpNone = engine.HelpNone
)

// IntrospectionServer is the live HTTP introspection server (see the
// hcf/serve package): JSON endpoints under /debug for metrics snapshots,
// interval series, SLO burn-rate state, per-shard counters, sojourn tails,
// trace hot lines and a decision journal, plus the standard pprof set.
// Attach one to an open-loop run via OpenLoopConfig.Observer, or install
// one serve.Source explicitly with its Attach method.
type IntrospectionServer = serve.Server

// Serve starts a live introspection server on addr ("host:port"; port 0
// picks a free one) and returns it with the bound address. Handlers read
// only host-side atomics and published snapshots, so attaching the server
// to a deterministic run never changes results — enabled or disabled, the
// output is bit-identical.
func Serve(addr string) (*IntrospectionServer, string, error) {
	s := serve.New()
	bound, err := s.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return s, bound, nil
}

// Result packing helpers for Op.Apply return values.
var (
	// Pack encodes (63-bit value, ok) into a result word.
	Pack = engine.Pack
	// Unpack decodes a result word.
	Unpack = engine.Unpack
	// PackBool encodes a bare boolean result.
	PackBool = engine.PackBool
	// UnpackBool decodes a bare boolean result.
	UnpackBool = engine.UnpackBool
)
