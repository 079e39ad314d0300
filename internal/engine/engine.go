// Package engine defines the vocabulary shared by all synchronization
// engines in this repository: the operation interface that sequential
// data-structure code is wrapped in, the engine interface the experiment
// harness drives, combining hooks, and common metrics.
//
// Six engines implement Engine: the paper's HCF framework
// (internal/core) and the five comparison baselines from §3 — Lock, TLE,
// FC, SCM and the naive TLE+FC (internal/engines).
package engine

import (
	"hcf/internal/htm"
	"hcf/internal/memsim"
)

// Op is a single data-structure operation, wrapping the data structure's
// sequential code (the paper's runSeq).
//
// Apply may be executed speculatively and retried: it must confine its side
// effects to the Ctx (simulated memory) and return its result rather than
// writing it into shared Go state. It may be run by the invoking thread or
// by a combiner on the invoking thread's behalf.
type Op interface {
	// Apply runs the operation's sequential code against ctx and returns
	// its (encoded) result.
	Apply(ctx memsim.Ctx) uint64
	// Class identifies the operation class for per-class policies (e.g.
	// which publication array announces it). Engines without per-class
	// behaviour ignore it. Classes must be dense, starting at 0.
	Class() int
}

// Engine applies operations of a sequentially implemented data structure
// with some synchronization discipline.
type Engine interface {
	// Execute runs op to completion on behalf of thread th and returns its
	// result. It must be linearizable: the operation takes effect exactly
	// once, at some instant between invocation and return.
	Execute(th *memsim.Thread, op Op) uint64
	// Name identifies the engine in experiment output ("HCF", "TLE", ...).
	Name() string
	// Metrics returns aggregated counters since the last reset.
	Metrics() Metrics
	// ResetMetrics zeroes the counters (e.g. after warmup).
	ResetMetrics()
}

// CombineFunc applies a batch of pending operations, combining and/or
// eliminating them using data-structure-specific semantics (the paper's
// runMulti). It must mark every operation it completed in done and record
// the operation's result in res. It may complete only a subset per call;
// the caller invokes it repeatedly until all operations are done (so that
// each call's footprint fits in one hardware transaction).
//
// Like Op.Apply, a CombineFunc runs inside a transaction or under the
// data-structure lock, so it is written as sequential code.
type CombineFunc func(ctx memsim.Ctx, ops []Op, res []uint64, done []bool)

// ApplyEach is the default CombineFunc: it simply runs every remaining
// operation's own sequential code, with no combining or elimination.
func ApplyEach(ctx memsim.Ctx, ops []Op, res []uint64, done []bool) {
	for i, op := range ops {
		if !done[i] {
			res[i] = op.Apply(ctx)
			done[i] = true
		}
	}
}

// ShouldHelpFunc decides whether a combiner executing mine should also take
// responsibility for other (the paper's shouldHelp). It runs while holding
// the publication array's selection lock; ctx provides direct access to
// simulated memory, e.g. to read a look-aside variable such as the AVL
// tree's root key (paper §3.4).
type ShouldHelpFunc func(ctx memsim.Ctx, mine, other Op) bool

// HelpAll selects every announced operation — the default used when a whole
// publication array combines well (paper §2.2).
func HelpAll(ctx memsim.Ctx, mine, other Op) bool { return true }

// HelpNone selects no other operations, so a combiner applies only its own
// operation — useful when combining is not applicable (paper §2.2).
func HelpNone(ctx memsim.Ctx, mine, other Op) bool { return false }

// WitnessFunc observes completed operation applications for
// linearizability checking. stamp is a serialization stamp: applications
// are legally ordered by (stamp, intra), where intra orders operations that
// were applied atomically in the same combined batch (the batch index,
// which is the application order for order-preserving combiners; a
// key-sorting combiner's checker passes its order as a rank, e.g.
// setops.Rank). Engines call the witness exactly once per operation, from
// the thread that applied it.
type WitnessFunc func(stamp uint64, intra int, op Op, result uint64)

// WitnessedEngine is implemented by engines that can report a
// serialization witness for every applied operation.
type WitnessedEngine interface {
	Engine
	// SetWitness installs fn (nil disables). Install before running ops.
	SetWitness(fn WitnessFunc)
}

// Recorder receives latency and counter samples from an engine's hot path.
// It is satisfied by *metrics.Recorder (internal/metrics). Implementations
// must be cheap and allocation-free: they run inline on the execution path,
// and on the real backend concurrently from all threads.
type Recorder interface {
	// RecordOp records one completed operation: its class, the index of
	// the completion path it drained through (see MeteredEngine
	// CompletionPaths), and its end-to-end latency in the environment's
	// time unit (virtual cycles or wall nanoseconds).
	RecordOp(t, class, path int, latency int64)
	// RecordTx records one finished transaction attempt: outcome 0 is a
	// commit, other values are htm.Reason abort codes.
	RecordTx(t, outcome int, latency int64)
	// RecordLockHold records one data-structure lock hold interval.
	RecordLockHold(t int, held int64)
	// RecordCombine records one combining session selecting n operations.
	RecordCombine(t, n int)
}

// MeteredEngine is implemented by engines that can stream per-operation
// latencies and lock/combining samples into a Recorder. All six engines in
// this repository implement it.
type MeteredEngine interface {
	Engine
	// SetRecorder installs rec (nil disables). Install before running ops.
	SetRecorder(rec Recorder)
	// CompletionPaths labels the engine's completion paths, indexed by the
	// path values it passes to Recorder.RecordOp — for HCF the four
	// phases, for baselines their own completion routes.
	CompletionPaths() []string
}

// Metrics aggregates engine activity counters used by the experiment
// harness.
type Metrics struct {
	// Ops is the number of completed operations.
	Ops uint64
	// LockAcquisitions counts acquisitions of the data-structure lock L.
	LockAcquisitions uint64
	// AuxAcquisitions counts acquisitions of auxiliary/selection locks.
	AuxAcquisitions uint64
	// HTM aggregates transactional activity across threads.
	HTM htm.Stats
	// CombinerSessions counts combining passes (one per combiner role).
	CombinerSessions uint64
	// CombinedOps counts operations applied within combining passes,
	// including the combiner's own. CombinedOps/CombinerSessions is the
	// combining degree reported in §3.3.
	CombinedOps uint64
	// PhaseCompleted[p] counts operations that completed in phase p
	// (HCF only): 0 TryPrivate, 1 TryVisible, 2 TryCombining,
	// 3 CombineUnderLock.
	PhaseCompleted [NumPhases]uint64
}

// CombiningDegree returns the mean number of operations applied per
// combining pass (0 when no combining happened).
func (m *Metrics) CombiningDegree() float64 {
	if m.CombinerSessions == 0 {
		return 0
	}
	return float64(m.CombinedOps) / float64(m.CombinerSessions)
}

// Merge adds o into m.
func (m *Metrics) Merge(o *Metrics) {
	m.Ops += o.Ops
	m.LockAcquisitions += o.LockAcquisitions
	m.AuxAcquisitions += o.AuxAcquisitions
	m.HTM.Merge(&o.HTM)
	m.CombinerSessions += o.CombinerSessions
	m.CombinedOps += o.CombinedOps
	for i := range m.PhaseCompleted {
		m.PhaseCompleted[i] += o.PhaseCompleted[i]
	}
}

// Result packing helpers. Data-structure results in this repository are a
// value of up to 63 bits plus a found/success flag, packed into the uint64
// that Op.Apply returns.

// Pack encodes (value, ok) into a result word. value must fit in 63 bits.
func Pack(value uint64, ok bool) uint64 {
	r := value << 1
	if ok {
		r |= 1
	}
	return r
}

// Unpack decodes a result word produced by Pack.
func Unpack(r uint64) (value uint64, ok bool) {
	return r >> 1, r&1 != 0
}

// PackBool encodes a bare boolean result.
func PackBool(ok bool) uint64 { return Pack(0, ok) }

// UnpackBool decodes a bare boolean result.
func UnpackBool(r uint64) bool { return r&1 != 0 }
