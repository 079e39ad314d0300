package shard

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/htm"
	"hcf/internal/memsim"
	"hcf/internal/route"
)

// ErrStaleTopology is returned by Split/Merge when the topology changed
// between the caller's decision and the all-locks acquisition; the
// caller should re-read the topology and re-decide.
var ErrStaleTopology = errors.New("shard: topology changed before resharding could start")

// ErrNoSpareShard is returned by Split when every provisioned shard
// already owns part of the keyspace.
var ErrNoSpareShard = errors.New("shard: no spare shard to split into")

// MigrateFunc moves the data of every key whose owner changes between
// old and next from shard `from`'s structure to shard `to`'s, returning
// the number of keys moved. It runs while the engine holds every
// shard's data-structure lock, with ctx charging the migration's
// simulated-memory cost to the caller, so the plain remove-and-insert
// sequential code is linearizable as one atomic step.
type MigrateFunc func(ctx memsim.Ctx, from, to int, old, next *route.Ring) int

// ElasticConfig configures an Elastic engine. All MaxShards frameworks
// are provisioned at construction (creating simulated-memory structures
// mid-run is not safe); the ring decides which are active.
type ElasticConfig struct {
	// MaxShards is the number of provisioned frameworks; must be ≥ 1.
	MaxShards int
	// Initial is the number of initially active shards (default 1).
	Initial int
	// Slots is the ring's virtual-node count (0 = route.DefaultSlots).
	Slots int
	// Key extracts an operation's routing key; must be non-nil.
	// Operations with ok=false run on the all-locks cross-shard path.
	Key KeyFunc
	// Bind attaches a keyed operation to shard si's structure (e.g.
	// sets a hash-table op's table pointer); must be non-nil. Callers
	// submit unbound operations — binding happens inside the
	// shard-local execution, after ownership is validated against the
	// live ring, so an operation always applies to the structure that
	// owns its key at its linearization point (a caller-side binding
	// could go stale between routing and commit).
	Bind func(op engine.Op, si int) engine.Op
	// Migrate moves re-owned keys during Split/Merge; must be non-nil.
	Migrate MigrateFunc
	// Policies, indexed by Op.Class(), must be non-empty.
	Policies []core.Policy
	// HoldSelectionLock selects the specialized HCF variant (§2.4).
	HoldSelectionLock bool
	// HTM configures each shard's transactional engine.
	HTM htm.Config
	// Name overrides the engine name (default "HCF-E").
	Name string
	// ExtraArrays provisions spare publication arrays per shard.
	ExtraArrays int
}

// Elastic is a Sharded engine whose key→shard topology is a live
// consistent-hash ring: shards split and merge online, and every
// operation routes through an epoch-published route.Table.
//
// The routing race is resolved optimistically: Execute routes on the
// current ring, then the operation re-validates ownership *inside* its
// shard-local execution (routedOp.Apply). The topology only ever
// changes while Split/Merge holds every shard lock, and a shard-local
// execution either holds its shard's lock or runs a transaction
// subscribed to it — so an execution that commits is guaranteed to have
// validated against the ring that is still current at its
// linearization point. A stale route applies nothing, is skipped by the
// witness, and the owner retries on the freshly published ring.
type Elastic struct {
	*Sharded
	table   *route.Table
	bind    func(op engine.Op, si int) engine.Op
	migrate MigrateFunc
	// per-thread routing state: one outstanding routed op per thread.
	routed []routedOp

	splits    atomic.Uint64
	merges    atomic.Uint64
	movedKeys atomic.Uint64
	reroutes  atomic.Uint64
}

var (
	_ engine.Engine          = (*Elastic)(nil)
	_ engine.WitnessedEngine = (*Elastic)(nil)
	_ engine.MeteredEngine   = (*Elastic)(nil)
)

// routedOp wraps a shard-local operation with its ring ownership check.
// One instance per thread is reused for every routed execution: a
// thread has at most one outstanding operation, and the engine fully
// completes it (witness included) before Execute returns.
type routedOp struct {
	e     *Elastic
	inner engine.Op
	key   uint64
	si    int32
	// stale is set by Apply when the ring no longer routes key to si.
	// Aborted speculative attempts re-run Apply, so the committed
	// attempt's verdict is the one visible after Execute returns.
	stale bool
}

// Apply validates ownership against the *current* ring before touching
// shard data, then binds the inner op to its shard's structure and runs
// it. A stale route applies nothing and returns 0; the owner thread
// re-routes and retries.
func (o *routedOp) Apply(ctx memsim.Ctx) uint64 {
	if o.e.table.Load().Owner(o.key) != int(o.si) {
		o.stale = true
		return 0
	}
	o.stale = false
	return o.e.bind(o.inner, int(o.si)).Apply(ctx)
}

// Class routes policy lookup to the wrapped operation's class.
func (o *routedOp) Class() int { return o.inner.Class() }

// NewElastic builds an Elastic engine over env.
func NewElastic(env memsim.Env, cfg ElasticConfig) (*Elastic, error) {
	if cfg.MaxShards < 1 {
		return nil, fmt.Errorf("shard: MaxShards must be >= 1, got %d", cfg.MaxShards)
	}
	if cfg.Key == nil {
		return nil, fmt.Errorf("shard: Key must be non-nil")
	}
	if cfg.Bind == nil {
		return nil, fmt.Errorf("shard: Bind must be non-nil")
	}
	if cfg.Migrate == nil {
		return nil, fmt.Errorf("shard: Migrate must be non-nil")
	}
	initial := cfg.Initial
	if initial == 0 {
		initial = 1
	}
	if initial < 1 || initial > cfg.MaxShards {
		return nil, fmt.Errorf("shard: Initial %d outside [1,%d]", initial, cfg.MaxShards)
	}
	ring, err := route.NewUniform(initial, cfg.Slots, cfg.MaxShards)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = "HCF-E"
	}
	base, err := newShards(env, Config{
		Policies:          cfg.Policies,
		HoldSelectionLock: cfg.HoldSelectionLock,
		HTM:               cfg.HTM,
		ExtraArrays:       cfg.ExtraArrays,
	}, cfg.MaxShards, name)
	if err != nil {
		return nil, err
	}
	base.key = cfg.Key
	e := &Elastic{
		Sharded: base,
		table:   route.NewTable(ring),
		bind:    cfg.Bind,
		migrate: cfg.Migrate,
		routed:  make([]routedOp, env.NumThreads()+1),
	}
	for i := range e.routed {
		e.routed[i].e = e
	}
	return e, nil
}

// Table exposes the live topology (wait-free Load on every route).
func (e *Elastic) Table() *route.Table { return e.table }

// Execute routes op on the current ring and retries on a stale route.
// Operations without a routing key take the all-locks cross-shard path.
func (e *Elastic) Execute(th *memsim.Thread, op engine.Op) uint64 {
	k, ok := e.key(op)
	if !ok {
		return e.executeCross(th, op)
	}
	ro := &e.routed[th.ID()]
	ro.inner, ro.key = op, k
	for {
		ro.si = int32(e.table.Load().Owner(k))
		res := e.shards[ro.si].Execute(th, ro)
		if !ro.stale {
			ro.inner = nil
			return res
		}
		// The ring moved this key while the op was in flight: nothing
		// was applied, nothing witnessed. Re-route on the new ring.
		e.reroutes.Add(1)
	}
}

// SetWitness installs fn on every shard and the cross path, wrapped so
// that stale (non-)applications are invisible and committed routed
// operations are reported as their inner op.
func (e *Elastic) SetWitness(fn engine.WitnessFunc) {
	if fn == nil {
		e.Sharded.SetWitness(nil)
		return
	}
	e.Sharded.SetWitness(func(stamp uint64, intra int, op engine.Op, result uint64) {
		if ro, ok := op.(*routedOp); ok {
			if ro.stale {
				return
			}
			op = ro.inner
		}
		fn(stamp, intra, op, result)
	})
}

// Split divides shard from's keyspace with the lowest-numbered spare
// shard: half of from's ring slots — and the keys they own — move to
// the spare, and the new ring is published atomically with the data
// migration. Returns the spare's index and the number of keys moved.
// Shard-local traffic on uninvolved shards is stopped only for the
// duration of the all-locks critical section, exactly like any
// cross-shard operation.
func (e *Elastic) Split(th *memsim.Thread, from int) (to, moved int, err error) {
	old := e.table.Load()
	to = -1
	for s := 0; s < old.NumShards(); s++ {
		if old.SlotCount(s) == 0 {
			to = s
			break
		}
	}
	if to < 0 {
		return -1, 0, ErrNoSpareShard
	}
	next, err := old.Split(from, to)
	if err != nil {
		return -1, 0, err
	}
	moved, err = e.reshape(th, old, next, from, to)
	if err != nil {
		return -1, 0, err
	}
	e.splits.Add(1)
	return to, moved, nil
}

// Merge folds shard from's keyspace (and data) into shard into,
// returning the number of keys moved. from becomes a spare available to
// later splits.
func (e *Elastic) Merge(th *memsim.Thread, from, into int) (moved int, err error) {
	old := e.table.Load()
	next, err := old.Merge(from, into)
	if err != nil {
		return 0, err
	}
	moved, err = e.reshape(th, old, next, from, into)
	if err != nil {
		return 0, err
	}
	e.merges.Add(1)
	return moved, nil
}

// reshape is the linearizable resharding primitive: take every shard's
// data-structure lock in canonical ascending order (the existing
// cross-shard discipline, so no shard-local operation can commit
// anywhere meanwhile), migrate the re-owned keys, publish the new ring,
// and release in reverse order. In-flight operations that routed on the
// old ring fail their ownership validation and retry on the new one.
func (e *Elastic) reshape(th *memsim.Thread, old, next *route.Ring, from, to int) (int, error) {
	for _, fw := range e.shards {
		fw.Lock().Lock(th)
	}
	if e.table.Load() != old {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].Lock().Unlock(th)
		}
		return 0, ErrStaleTopology
	}
	moved := e.migrate(th, from, to, old, next)
	e.table.Publish(next)
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].Lock().Unlock(th)
	}
	e.movedKeys.Add(uint64(moved))
	return moved, nil
}

// Topology is a point-in-time plain-data view of an Elastic engine's
// routing state, served by /debug/shards and hcfbench -fig point:elastic.
type Topology struct {
	Name        string         `json:"name"`
	Ring        route.Snapshot `json:"ring"`
	Provisioned int            `json:"provisioned"`
	Splits      uint64         `json:"splits"`
	Merges      uint64         `json:"merges"`
	MovedKeys   uint64         `json:"moved_keys"`
	Reroutes    uint64         `json:"reroutes"`
	ShardOps    []uint64       `json:"shard_ops"`
	CrossOps    uint64         `json:"cross_ops"`
}

// Topology snapshots the live routing state. Safe to call concurrently
// with traffic and resharding (counters are atomic, the ring immutable).
func (e *Elastic) Topology() Topology {
	return Topology{
		Name:        e.name,
		Ring:        e.table.Load().Snapshot(),
		Provisioned: len(e.shards),
		Splits:      e.splits.Load(),
		Merges:      e.merges.Load(),
		MovedKeys:   e.movedKeys.Load(),
		Reroutes:    e.reroutes.Load(),
		ShardOps:    e.ShardOps(),
		CrossOps:    e.CrossOps(),
	}
}

// Reroutes returns how many in-flight operations had to re-route
// because a Split/Merge moved their key mid-execution.
func (e *Elastic) Reroutes() uint64 { return e.reroutes.Load() }
