// Package route is the routing subsystem shared by every sharded layer
// in the repo: a deterministic consistent-hash ring with a stable
// key→shard map, a provable small-movement property on topology change,
// and an epoch-published topology so the hot lookup stays zero-alloc and
// wait-free.
//
// The ring is the fixed-slot ("memento"/virtual-node) flavour of
// consistent hashing: a power-of-two number of slots, each owned by one
// shard. A key hashes to a slot via the top bits of a Fibonacci hash and
// the slot's owner is a single array load — no search, no allocation, no
// lock. Topology changes (Split, Merge) produce a *new* immutable Ring
// that differs from the old one only in the slots that actually moved,
// which is what gives the small-movement bound: splitting one shard into
// two moves exactly half of that shard's slots (≈ K/N of K keys when N
// shards are active, +ε for slot granularity), and a merge of the pair
// moves them back — no uninvolved key ever changes owner.
//
// Rings are immutable after construction; publication is a single
// atomic pointer swap (Table). Readers loading an old ring for the
// duration of one operation is the expected, tolerated race — callers
// that need a consistency guarantee (the sharded engine) re-validate
// ownership under the shard lock and retry on a stale route.
package route

import (
	"fmt"
	"math/bits"
)

// fib is the 64-bit Fibonacci hashing multiplier (golden ratio). The
// same multiplier routes keys in the sim-backed sharded engine and the
// KV store's persistent index, so the key→shard function is audited in
// exactly one place.
const fib = 0x9E3779B97F4A7C15

// DefaultSlots is the default virtual-node count. 256 slots over ≤ 64
// shards keeps the worst-case imbalance from slot granularity under
// ~2% while the whole slot table stays in four cache lines.
const DefaultSlots = 256

// Hash is the shared key→uint64 routing hash (Fibonacci hashing).
// Owners are assigned from the *top* bits of the product, which are the
// well-mixed ones.
func Hash(key uint64) uint64 { return key * fib }

// Ring is an immutable consistent-hash topology: a power-of-two slot
// table mapping hash prefixes to shard indices. Create one with
// NewUniform and evolve it with Split/Merge; never mutate in place.
type Ring struct {
	epoch uint64  // monotonically increasing topology version
	shift uint    // 64 - log2(len(slots)): Hash(key)>>shift indexes slots
	slots []int32 // slot → owning shard
	// counts[s] = number of slots owned by shard s; len(counts) is the
	// shard-index space (NumShards for which Owner may return s).
	counts []int32
	active int // number of shards owning ≥1 slot
}

// NewUniform builds an epoch-0 ring that spreads slots evenly over
// shards 0..shards-1. slots must be a power of two ≥ shards (0 means
// DefaultSlots, raised to shards if needed). maxShards reserves the
// shard-index space for later splits; it is raised to shards.
func NewUniform(shards, slots, maxShards int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("route: shards must be ≥ 1 (got %d)", shards)
	}
	if maxShards < shards {
		maxShards = shards
	}
	if slots == 0 {
		slots = DefaultSlots
	}
	if slots < maxShards {
		slots = 1 << bits.Len(uint(maxShards-1))
	}
	if slots&(slots-1) != 0 {
		return nil, fmt.Errorf("route: slots must be a power of two (got %d)", slots)
	}
	if slots < shards {
		return nil, fmt.Errorf("route: need ≥ %d slots for %d shards (got %d)", shards, shards, slots)
	}
	r := &Ring{
		shift:  uint(64 - bits.Len(uint(slots-1))),
		slots:  make([]int32, slots),
		counts: make([]int32, maxShards),
		active: shards,
	}
	// Contiguous equal runs: slot s belongs to shard s*shards/slots.
	// Keys are pre-scrambled by the Fibonacci hash, so contiguous slot
	// runs still see uniform traffic.
	for s := range r.slots {
		owner := int32(uint64(s) * uint64(shards) / uint64(slots))
		r.slots[s] = owner
		r.counts[owner]++
	}
	return r, nil
}

// Epoch returns the topology version (0 for a fresh uniform ring,
// incremented by every Split/Merge).
func (r *Ring) Epoch() uint64 { return r.epoch }

// Slots returns the virtual-node count.
func (r *Ring) Slots() int { return len(r.slots) }

// NumShards returns the size of the shard-index space (provisioned
// shards); Owner always returns a value in [0, NumShards).
func (r *Ring) NumShards() int { return len(r.counts) }

// Active returns the number of shards currently owning at least one
// slot.
func (r *Ring) Active() int { return r.active }

// Owner returns the shard owning key. Zero-alloc, wait-free: one
// multiply, one shift, one array load.
func (r *Ring) Owner(key uint64) int {
	return int(r.slots[Hash(key)>>r.shift])
}

// OwnerOfSlot returns the shard owning virtual node slot.
func (r *Ring) OwnerOfSlot(slot int) int { return int(r.slots[slot]) }

// SlotCount returns the number of slots owned by shard s.
func (r *Ring) SlotCount(s int) int { return int(r.counts[s]) }

// Load returns shard s's share of the keyspace as a fraction in [0,1].
func (r *Ring) Load(s int) float64 {
	return float64(r.counts[s]) / float64(len(r.slots))
}

// SlotsOf returns the slot indices owned by shard s, ascending.
func (r *Ring) SlotsOf(s int) []int {
	out := make([]int, 0, r.counts[s])
	for i, o := range r.slots {
		if int(o) == s {
			out = append(out, i)
		}
	}
	return out
}

// clone copies r with epoch+1; the caller mutates the copy before
// publishing it.
func (r *Ring) clone() *Ring {
	c := &Ring{
		epoch:  r.epoch + 1,
		shift:  r.shift,
		slots:  append([]int32(nil), r.slots...),
		counts: append([]int32(nil), r.counts...),
		active: r.active,
	}
	return c
}

// Split moves every second slot of shard from to shard to (which must
// currently own no slots), returning a new ring at epoch+1. Exactly
// ⌊count(from)/2⌋ slots — and therefore ≈ half of from's keys and none
// of anyone else's — change owner: the small-movement property.
func (r *Ring) Split(from, to int) (*Ring, error) {
	if from < 0 || from >= len(r.counts) || to < 0 || to >= len(r.counts) {
		return nil, fmt.Errorf("route: split %d→%d out of range [0,%d)", from, to, len(r.counts))
	}
	if from == to {
		return nil, fmt.Errorf("route: split source and target are both %d", from)
	}
	if r.counts[from] < 2 {
		return nil, fmt.Errorf("route: shard %d owns %d slot(s), cannot split", from, r.counts[from])
	}
	if r.counts[to] != 0 {
		return nil, fmt.Errorf("route: split target %d already owns %d slot(s)", to, r.counts[to])
	}
	c := r.clone()
	// Move every second of from's slots (by ascending slot index) so
	// both halves keep interleaved coverage of from's hash region.
	nth := 0
	for i, o := range c.slots {
		if int(o) != from {
			continue
		}
		if nth&1 == 1 {
			c.slots[i] = int32(to)
			c.counts[from]--
			c.counts[to]++
		}
		nth++
	}
	c.active++
	return c, nil
}

// Merge moves every slot of shard from to shard into, returning a new
// ring at epoch+1. After Merge(to, from) of a previous Split(from, to)
// with no intervening changes, the slot table is identical to the
// pre-split one (merge is the inverse of split).
func (r *Ring) Merge(from, into int) (*Ring, error) {
	if from < 0 || from >= len(r.counts) || into < 0 || into >= len(r.counts) {
		return nil, fmt.Errorf("route: merge %d→%d out of range [0,%d)", from, into, len(r.counts))
	}
	if from == into {
		return nil, fmt.Errorf("route: merge source and target are both %d", from)
	}
	if r.counts[from] == 0 {
		return nil, fmt.Errorf("route: shard %d owns no slots", from)
	}
	if r.counts[into] == 0 {
		return nil, fmt.Errorf("route: merge target %d owns no slots", into)
	}
	c := r.clone()
	for i, o := range c.slots {
		if int(o) == from {
			c.slots[i] = int32(into)
		}
	}
	c.counts[into] += c.counts[from]
	c.counts[from] = 0
	c.active--
	return c, nil
}

// Snapshot is a plain-data view of a ring for introspection endpoints
// (serve's /debug/shards, hcfbench -fig point): no methods, JSON-friendly.
type Snapshot struct {
	Epoch  uint64    `json:"epoch"`
	Slots  int       `json:"slots"`
	Active int       `json:"active"`
	Owners []int32   `json:"owners"`           // slot → shard
	Counts []int32   `json:"counts"`           // shard → slot count
	Shares []float64 `json:"shares,omitempty"` // shard → keyspace fraction
}

// Snapshot materializes a copy of the ring's state.
func (r *Ring) Snapshot() Snapshot {
	s := Snapshot{
		Epoch:  r.epoch,
		Slots:  len(r.slots),
		Active: r.active,
		Owners: append([]int32(nil), r.slots...),
		Counts: append([]int32(nil), r.counts...),
		Shares: make([]float64, len(r.counts)),
	}
	for i, c := range r.counts {
		s.Shares[i] = float64(c) / float64(len(r.slots))
	}
	return s
}
