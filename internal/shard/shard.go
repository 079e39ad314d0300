// Package shard runs N independent HCF frameworks over one environment,
// routing each operation to the framework owning its shard. Independent
// combiners then run in parallel on disjoint shards — each shard has its
// own data-structure lock, publication arrays and selection locks — which
// lifts the single-lock/single-combiner ceiling of one framework (the
// "inherent limitations" argument: shrinking the shared conflict footprint
// is the only way past it).
//
// Operations whose key extractor reports no key (they span shards) take a
// pessimistic cross-shard path: the thread acquires every shard's
// data-structure lock in canonical (ascending index) order, applies the
// operation directly, and releases in reverse order. This is deadlock-free
// because shard-local execution only ever takes its own shard's locks, and
// all cross-shard operations use the same global acquisition order. It is
// linearizable because every shard-local path either holds the shard lock
// or runs a transaction subscribed to it: while the cross-shard operation
// holds all locks, no shard-local operation can commit anywhere, so the
// lock-stamped witness point is totally ordered against all shard-local
// serialization stamps.
package shard

import (
	"fmt"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/htm"
	"hcf/internal/memsim"
	"hcf/internal/route"
)

// KeyFunc extracts an operation's routing key. ok=false marks an
// operation that spans shards (it runs on the all-locks cross-shard
// path). It must be deterministic and cheap: it runs on every Execute,
// and an operation must resolve to the same key for its whole lifetime.
type KeyFunc func(op engine.Op) (key uint64, ok bool)

// Config configures a Sharded engine. Policies, HoldSelectionLock, HTM
// and ExtraArrays are applied to every per-shard framework (budgets stay
// independently adjustable per shard afterwards via Shard).
//
// Routing is a Key extractor plus an optional Ring: the owner of a key
// is looked up on a consistent-hash ring (route.NewUniform over Shards
// when Ring is nil), the shared, audited key→shard map and the
// prerequisite for elastic resharding.
type Config struct {
	// Shards is the number of frameworks; must be >= 1.
	Shards int
	// Key extracts the routing key; must be non-nil.
	Key KeyFunc
	// Ring overrides the consistent-hash topology used with Key
	// (default: route.NewUniform(Shards, 0, Shards)). Must have
	// NumShards() == Shards.
	Ring *route.Ring
	// Policies, indexed by Op.Class(), must be non-empty.
	Policies []core.Policy
	// HoldSelectionLock selects the specialized HCF variant (§2.4).
	HoldSelectionLock bool
	// HTM configures each shard's transactional engine.
	HTM htm.Config
	// Name overrides the engine name (default "HCF-S").
	Name string
	// ExtraArrays provisions spare publication arrays per shard.
	ExtraArrays int
}

// threadMetrics pads per-thread cross-path counters against false sharing.
type threadMetrics struct {
	m engine.Metrics
	_ [40]byte
}

// Sharded is N core.Frameworks over one Env behind the engine.Engine
// interface.
type Sharded struct {
	shards []*core.Framework
	key    KeyFunc
	ring   *route.Ring // static topology; nil for Elastic
	name   string
	// per holds the cross-shard path's counters; shard-local operations
	// are counted by their framework.
	per     []threadMetrics
	witness engine.WitnessFunc
	rec     engine.Recorder
}

var (
	_ engine.Engine          = (*Sharded)(nil)
	_ engine.WitnessedEngine = (*Sharded)(nil)
	_ engine.MeteredEngine   = (*Sharded)(nil)
)

// newShards provisions n per-shard frameworks and the cross-path
// counters; routing is the caller's concern (New wires a static ring,
// Elastic wires its epoch-published table).
func newShards(env memsim.Env, cfg Config, n int, name string) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1, got %d", n)
	}
	s := &Sharded{
		name: name,
		per:  make([]threadMetrics, env.NumThreads()+1),
	}
	for i := 0; i < n; i++ {
		fw, err := core.New(env, core.Config{
			Policies:          cfg.Policies,
			HoldSelectionLock: cfg.HoldSelectionLock,
			HTM:               cfg.HTM,
			Name:              fmt.Sprintf("%s/%d", name, i),
			ExtraArrays:       cfg.ExtraArrays,
		})
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, fw)
	}
	return s, nil
}

// New builds a Sharded engine over env.
func New(env memsim.Env, cfg Config) (*Sharded, error) {
	if cfg.Key == nil {
		return nil, fmt.Errorf("shard: Key must be set")
	}
	name := cfg.Name
	if name == "" {
		name = "HCF-S"
	}
	s, err := newShards(env, cfg, cfg.Shards, name)
	if err != nil {
		return nil, err
	}
	ring := cfg.Ring
	if ring == nil {
		if ring, err = route.NewUniform(cfg.Shards, 0, cfg.Shards); err != nil {
			return nil, err
		}
	}
	if ring.NumShards() != cfg.Shards {
		return nil, fmt.Errorf("shard: ring spans %d shards, engine has %d", ring.NumShards(), cfg.Shards)
	}
	s.key, s.ring = cfg.Key, ring
	return s, nil
}

// Ring returns the engine's static consistent-hash topology, or nil for
// Elastic, whose topology is dynamic (see Elastic.Topology).
func (s *Sharded) Ring() *route.Ring { return s.ring }

// Name returns the engine name.
func (s *Sharded) Name() string { return s.name }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes shard i's framework (budget tuning, statistics, tests).
func (s *Sharded) Shard(i int) *core.Framework { return s.shards[i] }

// Execute routes op to the framework owning its key, or over the
// cross-shard path when op has no key.
func (s *Sharded) Execute(th *memsim.Thread, op engine.Op) uint64 {
	if k, ok := s.key(op); ok {
		return s.shards[s.ring.Owner(k)].Execute(th, op)
	}
	return s.executeCross(th, op)
}

// executeCross applies op while holding every shard's data-structure lock,
// acquired in canonical ascending order and released in reverse.
func (s *Sharded) executeCross(th *memsim.Thread, op engine.Op) uint64 {
	t := th.ID()
	tm := &s.per[t].m
	var start int64
	if s.rec != nil {
		start = th.Now()
	}
	for _, fw := range s.shards {
		fw.Lock().Lock(th)
	}
	tm.LockAcquisitions++
	var holdStart int64
	if s.rec != nil {
		holdStart = th.Now()
	}
	res := op.Apply(th)
	if s.witness != nil {
		// All shard locks are held, so the lock stamp is totally ordered
		// against every shard-local serialization stamp (see package doc).
		s.witness(htm.LockStamp(th), 0, op, res)
	}
	if s.rec != nil {
		s.rec.RecordLockHold(t, th.Now()-holdStart)
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].Lock().Unlock(th)
	}
	tm.Ops++
	if s.rec != nil {
		s.rec.RecordOp(t, op.Class(), core.NumPhases, th.Now()-start)
	}
	return res
}

// SetWitness installs a serialization-witness observer on every shard and
// on the cross-shard path (nil disables).
func (s *Sharded) SetWitness(fn engine.WitnessFunc) {
	s.witness = fn
	for _, fw := range s.shards {
		fw.SetWitness(fn)
	}
}

// SetRecorder installs a latency/counter recorder on every shard and on
// the cross-shard path (nil disables). Shard-local operations record their
// completion phase as the path index; cross-shard operations record path
// core.NumPhases (labelled engine.PathCross).
func (s *Sharded) SetRecorder(rec engine.Recorder) {
	s.rec = rec
	for _, fw := range s.shards {
		fw.SetRecorder(rec)
	}
}

// SetShardRecorders installs a distinct recorder on each shard plus one on
// the cross-shard path, so a grouped recorder (metrics.Config.Groups) can
// break activity out per shard instead of blending all shards through one
// sink. perShard must have one entry per shard (nil entries disable that
// shard's recording); cross may be nil.
func (s *Sharded) SetShardRecorders(perShard []engine.Recorder, cross engine.Recorder) error {
	if len(perShard) != len(s.shards) {
		return fmt.Errorf("shard: got %d recorders for %d shards", len(perShard), len(s.shards))
	}
	s.rec = cross
	for i, fw := range s.shards {
		fw.SetRecorder(perShard[i])
	}
	return nil
}

// CompletionPaths implements engine.MeteredEngine: the four HCF phases
// plus the cross-shard path.
func (s *Sharded) CompletionPaths() []string {
	return []string{
		core.PhaseTryPrivate.String(),
		core.PhaseTryVisible.String(),
		core.PhaseTryCombining.String(),
		core.PhaseCombineUnderLock.String(),
		engine.PathCross,
	}
}

// Metrics aggregates all shards' counters plus the cross-shard path's.
func (s *Sharded) Metrics() engine.Metrics {
	var m engine.Metrics
	for i := range s.per {
		m.Merge(&s.per[i].m)
	}
	for _, fw := range s.shards {
		fm := fw.Metrics()
		m.Merge(&fm)
	}
	return m
}

// ResetMetrics zeroes all counters on every shard and the cross path.
func (s *Sharded) ResetMetrics() {
	for i := range s.per {
		s.per[i].m = engine.Metrics{}
	}
	for _, fw := range s.shards {
		fw.ResetMetrics()
	}
}

// PhaseBreakdown merges the shards' per-class phase completion counts.
// Cross-shard operations complete outside the four phases and are not
// included; their count is CrossOps.
func (s *Sharded) PhaseBreakdown() [][core.NumPhases]uint64 {
	var out [][core.NumPhases]uint64
	for _, fw := range s.shards {
		pb := fw.PhaseBreakdown()
		if out == nil {
			out = make([][core.NumPhases]uint64, len(pb))
		}
		for c := range pb {
			for p := range pb[c] {
				out[c][p] += pb[c][p]
			}
		}
	}
	return out
}

// CrossOps returns how many operations completed on the cross-shard path.
func (s *Sharded) CrossOps() uint64 {
	var n uint64
	for i := range s.per {
		n += s.per[i].m.Ops
	}
	return n
}

// ShardOps returns the cumulative completed-operation count per shard —
// the load signal the Rebalancer samples to find hot shards.
func (s *Sharded) ShardOps() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, fw := range s.shards {
		out[i] = fw.Metrics().Ops
	}
	return out
}
