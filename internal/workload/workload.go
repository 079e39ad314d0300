// Package workload provides the key and operation-mix generators used by
// the paper's experiments: uniform keys for the hash table (§3.3), a
// Zipfian distribution with parameter theta in [0,1) for the skewed AVL
// workloads (§3.4, using the standard Gray et al. generator YCSB also
// uses), and weighted operation mixes.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// KeyGen draws keys from some distribution.
type KeyGen interface {
	// Next draws a key using r.
	Next(r *rand.Rand) uint64
	// Range returns the exclusive upper bound of generated keys.
	Range() uint64
}

// Uniform draws keys uniformly from [0, N).
type Uniform struct {
	N uint64
}

var _ KeyGen = Uniform{}

// Next implements KeyGen.
func (u Uniform) Next(r *rand.Rand) uint64 { return r.Uint64N(u.N) }

// Range implements KeyGen.
func (u Uniform) Range() uint64 { return u.N }

// Zipf draws keys from [0, n) with a Zipfian distribution of skew theta in
// [0, 1): higher theta gives the lower part of the key range higher
// probability (the paper's Figure 5 uses theta = 0.9).
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // (1 + 0.5^theta) threshold precomputed
}

var _ KeyGen = (*Zipf)(nil)

// NewZipf builds a generator over [0, n) with skew theta in [0, 1).
func NewZipf(n uint64, theta float64) (*Zipf, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: zipf needs a nonempty range")
	}
	if theta < 0 || theta >= 1 {
		return nil, fmt.Errorf("workload: zipf theta %v outside [0,1)", theta)
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z, nil
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyGen (Gray et al., "Quickly Generating Billion-Record
// Synthetic Databases", SIGMOD 1994).
func (z *Zipf) Next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Range implements KeyGen.
func (z *Zipf) Range() uint64 { return z.n }

// Mix picks an operation kind from weighted percentages.
type Mix struct {
	cum []int
}

// NewMix builds a mix from percentage weights (they must sum to 100).
func NewMix(weights ...int) (*Mix, error) {
	total := 0
	cum := make([]int, len(weights))
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("workload: negative weight %d", w)
		}
		total += w
		cum[i] = total
	}
	if total != 100 {
		return nil, fmt.Errorf("workload: weights sum to %d, want 100", total)
	}
	return &Mix{cum: cum}, nil
}

// Pick draws an operation kind index.
func (m *Mix) Pick(r *rand.Rand) int {
	x := int(r.Uint64N(100))
	for i, c := range m.cum {
		if x < c {
			return i
		}
	}
	return len(m.cum) - 1
}

// UpdateMix is the paper's standard mix shape: findPct% Finds with the
// remainder split evenly between Inserts and Removes (kind indices: 0 find,
// 1 insert, 2 remove).
func UpdateMix(findPct int) (*Mix, error) {
	if findPct < 0 || findPct > 100 {
		return nil, fmt.Errorf("workload: find percentage %d outside [0,100]", findPct)
	}
	rest := 100 - findPct
	ins := rest / 2
	return NewMix(findPct, ins, rest-ins)
}

// Schedule maps virtual time to a workload segment index: segment i covers
// [bounds[i-1], bounds[i]) with bounds[-1] = 0 and an implicit final
// segment from the last bound to infinity. It is the drift knob shared by
// DriftMix and DriftKeys: generators stay pure functions of (time, rng), so
// drifting workloads remain deterministic per seed.
type Schedule struct {
	bounds []int64
}

// NewSchedule builds a schedule from strictly ascending positive segment
// boundaries. No bounds means a single segment covering all of time.
func NewSchedule(bounds ...int64) (*Schedule, error) {
	prev := int64(0)
	for _, b := range bounds {
		if b <= prev {
			return nil, fmt.Errorf("workload: schedule bounds must be strictly ascending and positive, got %v", bounds)
		}
		prev = b
	}
	return &Schedule{bounds: append([]int64(nil), bounds...)}, nil
}

// Segments returns the number of segments (bounds + 1).
func (s *Schedule) Segments() int { return len(s.bounds) + 1 }

// SegmentAt returns the segment index covering time now.
func (s *Schedule) SegmentAt(now int64) int {
	for i, b := range s.bounds {
		if now < b {
			return i
		}
	}
	return len(s.bounds)
}

// Bound returns the start time of segment i (0 for the first segment).
func (s *Schedule) Bound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return s.bounds[i-1]
}

// DriftMix is an operation mix whose weights shift over virtual time: one
// Mix per schedule segment. It models workloads whose character changes
// mid-run — the case an online policy tuner must detect and follow.
type DriftMix struct {
	sched *Schedule
	mixes []*Mix
}

// NewDriftMix couples a schedule with one mix per segment.
func NewDriftMix(sched *Schedule, mixes ...*Mix) (*DriftMix, error) {
	if sched == nil {
		return nil, fmt.Errorf("workload: drift mix needs a schedule")
	}
	if len(mixes) != sched.Segments() {
		return nil, fmt.Errorf("workload: drift mix got %d mixes for %d segments", len(mixes), sched.Segments())
	}
	return &DriftMix{sched: sched, mixes: mixes}, nil
}

// PickAt draws an operation kind for virtual time now.
func (d *DriftMix) PickAt(now int64, r *rand.Rand) int {
	return d.mixes[d.sched.SegmentAt(now)].Pick(r)
}

// Schedule returns the drift schedule.
func (d *DriftMix) Schedule() *Schedule { return d.sched }

// DriftKeys is a key generator whose distribution shifts over virtual
// time: one KeyGen per schedule segment (e.g. a wide uniform range that
// collapses to a hot subset mid-run).
type DriftKeys struct {
	sched *Schedule
	gens  []KeyGen
}

// NewDriftKeys couples a schedule with one key generator per segment.
func NewDriftKeys(sched *Schedule, gens ...KeyGen) (*DriftKeys, error) {
	if sched == nil {
		return nil, fmt.Errorf("workload: drift keys need a schedule")
	}
	if len(gens) != sched.Segments() {
		return nil, fmt.Errorf("workload: drift keys got %d generators for %d segments", len(gens), sched.Segments())
	}
	return &DriftKeys{sched: sched, gens: gens}, nil
}

// NextAt draws a key for virtual time now.
func (d *DriftKeys) NextAt(now int64, r *rand.Rand) uint64 {
	return d.gens[d.sched.SegmentAt(now)].Next(r)
}

// Range returns the largest exclusive upper bound across segments.
func (d *DriftKeys) Range() uint64 {
	var n uint64
	for _, g := range d.gens {
		n = max(n, g.Range())
	}
	return n
}

// RingSkew skews a key stream toward the shard of a consistent-hash
// ring that owns a drifting target. Hash routing spreads any contiguous
// hot key *range* uniformly over shards, so forming a hot shard requires
// drawing from the set of keys the ring actually routes to one shard.
// RingSkew precomputes that set per schedule segment against the
// *initial* ring: when the hot shard later splits, the same hot set
// spreads over the two halves, which is exactly the healing mechanism
// the elastic layer is built to exercise. A negative target marks an
// unskewed segment (balanced traffic).
//
// Like DriftKeys, it is a pure function of (time, rng): drifting skew
// stays deterministic per seed.
type RingSkew struct {
	inner  KeyGen
	hotPct uint64
	sched  *Schedule
	hot    [][]uint64 // per segment: keys owned by the target, nil = unskewed
}

// ringSkewScanCap bounds the per-segment hot-set precomputation scan.
const ringSkewScanCap = 1 << 20

// Owner abstracts the route.Ring lookup (avoids a package cycle and
// keeps workload testable with a plain func).
type Owner func(key uint64) int

// NewRingSkew builds a drifting ring-skew generator: in schedule
// segment i, hotPct percent of draws are replaced by a uniform draw
// from the keys that owner routes to targets[i] (drawn from
// [0, inner.Range()), capped at the first 2^20 keys). targets[i] < 0
// leaves segment i unskewed.
func NewRingSkew(inner KeyGen, owner Owner, sched *Schedule, targets []int, hotPct int) (*RingSkew, error) {
	if hotPct < 0 || hotPct > 100 {
		return nil, fmt.Errorf("workload: hot percentage %d outside [0,100]", hotPct)
	}
	if len(targets) != sched.Segments() {
		return nil, fmt.Errorf("workload: ring skew got %d targets for %d segments", len(targets), sched.Segments())
	}
	s := &RingSkew{inner: inner, hotPct: uint64(hotPct), sched: sched, hot: make([][]uint64, len(targets))}
	scan := min(inner.Range(), ringSkewScanCap)
	for i, tgt := range targets {
		if tgt < 0 {
			continue
		}
		var keys []uint64
		for k := uint64(0); k < scan; k++ {
			if owner(k) == tgt {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return nil, fmt.Errorf("workload: ring skew target %d owns no keys in [0,%d)", tgt, scan)
		}
		s.hot[i] = keys
	}
	return s, nil
}

// NextAt draws a key for virtual time now.
func (s *RingSkew) NextAt(now int64, r *rand.Rand) uint64 {
	k := s.inner.Next(r)
	hot := s.hot[s.sched.SegmentAt(now)]
	if hot == nil || r.Uint64N(100) >= s.hotPct {
		return k
	}
	return hot[r.Uint64N(uint64(len(hot)))]
}

// Range implements the KeyGen range contract.
func (s *RingSkew) Range() uint64 { return s.inner.Range() }

// Next implements KeyGen at virtual time 0 — the static use of a ring
// skew (single segment, fixed target).
func (s *RingSkew) Next(r *rand.Rand) uint64 { return s.NextAt(0, r) }
