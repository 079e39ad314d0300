package memsim

// CostParams configures the cycle cost model of the deterministic simulator.
// The defaults approximate the Oracle X5-2 machine used in the paper: 18
// hyper-threaded cores per socket. Absolute values are not calibrated to the
// hardware — only their ratios matter for reproducing the shapes of the
// paper's figures.
type CostParams struct {
	// L1Hit is the cost of an access served by the thread's L1 cache.
	L1Hit int64
	// L1Miss is the cost of a local (capacity/cold) miss.
	L1Miss int64
	// CoherenceMiss is the cost of a miss caused by another core's write
	// (a cache-to-cache transfer).
	CoherenceMiss int64
	// NUMAPenalty is added to coherence misses that cross sockets.
	NUMAPenalty int64
	// YieldCost is charged per spin-loop yield.
	YieldCost int64
	// OpWork models the fixed instruction work per high-level data
	// structure operation outside memory accesses.
	OpWork int64

	// CoresPerSocket and Sockets define the simulated topology. Threads are
	// pinned the way the paper pins them: thread i runs on core
	// i mod (CoresPerSocket*Sockets); thread i and i+cores are SMT siblings.
	CoresPerSocket int
	Sockets        int
	// SMTPenaltyPct inflates a thread's costs by this percentage when its
	// SMT sibling is active (models hyper-threading resource sharing).
	// Zero takes the default; negative disables the penalty.
	SMTPenaltyPct int64

	// L1Sets and L1Ways size the per-thread L1 model. The default
	// 256 sets x 2 ways x 64-byte lines = 32 KiB, matching the paper's CPU.
	L1Sets int
	L1Ways int

	// JitterPct randomizes each charged cost by up to ±JitterPct percent,
	// drawn from a per-thread deterministic generator seeded by
	// DetConfig.Seed. Zero disables jitter. Used for schedule fuzzing:
	// every (JitterPct, Seed) pair yields a different — but exactly
	// reproducible — interleaving of the same workload.
	JitterPct int64
}

// DefaultCostParams returns the cost model used by the paper-reproduction
// experiments: a single 18-core hyper-threaded socket.
func DefaultCostParams() CostParams {
	return CostParams{
		L1Hit:          1,
		L1Miss:         14,
		CoherenceMiss:  50,
		NUMAPenalty:    90,
		YieldCost:      6,
		OpWork:         40,
		CoresPerSocket: 18,
		Sockets:        1,
		SMTPenaltyPct:  45,
		L1Sets:         256,
		L1Ways:         2,
	}
}

// TwoSocketCostParams returns the 2-socket topology used for the 72-thread
// NUMA experiment (Figure 2(b)).
func TwoSocketCostParams() CostParams {
	p := DefaultCostParams()
	p.Sockets = 2
	return p
}

func (p *CostParams) normalize() {
	d := DefaultCostParams()
	if p.L1Hit == 0 {
		p.L1Hit = d.L1Hit
	}
	if p.L1Miss == 0 {
		p.L1Miss = d.L1Miss
	}
	if p.CoherenceMiss == 0 {
		p.CoherenceMiss = d.CoherenceMiss
	}
	if p.NUMAPenalty == 0 {
		p.NUMAPenalty = d.NUMAPenalty
	}
	if p.YieldCost == 0 {
		p.YieldCost = d.YieldCost
	}
	if p.OpWork == 0 {
		p.OpWork = d.OpWork
	}
	if p.CoresPerSocket == 0 {
		p.CoresPerSocket = d.CoresPerSocket
	}
	if p.Sockets == 0 {
		p.Sockets = d.Sockets
	}
	if p.SMTPenaltyPct == 0 {
		p.SMTPenaltyPct = d.SMTPenaltyPct
	} else if p.SMTPenaltyPct < 0 {
		p.SMTPenaltyPct = 0
	}
	if p.L1Sets == 0 {
		p.L1Sets = d.L1Sets
	}
	if p.L1Ways == 0 {
		p.L1Ways = d.L1Ways
	}
}

// totalCores returns the number of physical cores in the topology.
func (p *CostParams) totalCores() int { return p.CoresPerSocket * p.Sockets }

// coreOf returns the physical core a thread is pinned to.
func (p *CostParams) coreOf(thread int) int { return thread % p.totalCores() }

// socketOf returns the socket a thread is pinned to.
func (p *CostParams) socketOf(thread int) int {
	return (p.coreOf(thread) / p.CoresPerSocket) % p.Sockets
}

// smtActive reports whether thread's SMT sibling exists given n running
// threads (the paper pins thread i and i+cores to the same core).
func (p *CostParams) smtActive(thread, n int) bool {
	cores := p.totalCores()
	if thread >= cores {
		return true // the low sibling certainly exists
	}
	return thread+cores < n
}

// l1Cache is a per-thread set-associative cache model with LRU replacement
// within a set. A cached entry is valid only while the line's current
// version matches the version recorded at fill time, which models
// invalidation-based coherence: any committed write to the line (which bumps
// the version) invalidates all other threads' copies.
type l1Cache struct {
	sets int
	ways int
	// tag and version are [sets*ways] arrays; lru holds per-set counters.
	tag  []uint32 // line+1, 0 = empty
	ver  []uint64
	use  []uint64
	tick uint64
}

func newL1Cache(sets, ways int) *l1Cache {
	n := sets * ways
	return &l1Cache{
		sets: sets,
		ways: ways,
		tag:  make([]uint32, n),
		ver:  make([]uint64, n),
		use:  make([]uint64, n),
	}
}

// setOf returns the index of the first way of line's set.
func (c *l1Cache) setOf(line uint32) int { return int(line) % c.sets * c.ways }

// lookup reports whether line is cached with the given current version.
func (c *l1Cache) lookup(line uint32, version uint64) bool {
	base := c.setOf(line)
	for w := 0; w < c.ways; w++ {
		if c.tag[base+w] == line+1 && c.ver[base+w] == version {
			c.tick++
			c.use[base+w] = c.tick
			return true
		}
	}
	return false
}

// fill installs (line, version), evicting the LRU way of the set.
func (c *l1Cache) fill(line uint32, version uint64) {
	base := c.setOf(line)
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tag[i] == line+1 { // refresh in place
			victim = i
			break
		}
		if c.use[i] < c.use[victim] {
			victim = i
		}
	}
	c.tick++
	c.tag[victim] = line + 1
	c.ver[victim] = version
	c.use[victim] = c.tick
}

// reset empties the cache.
func (c *l1Cache) reset() {
	for i := range c.tag {
		c.tag[i] = 0
		c.ver[i] = 0
		c.use[i] = 0
	}
	c.tick = 0
}

// l1Sets is a copy of some of an l1Cache's sets (see DetEnv.catchUp).
type l1Sets struct {
	tag []uint32
	ver []uint64
	use []uint64
}

// save copies the sets whose first ways are at bases into s.
func (c *l1Cache) save(s *l1Sets, bases []int) {
	s.tag, s.ver, s.use = s.tag[:0], s.ver[:0], s.use[:0]
	for _, b := range bases {
		s.tag = append(s.tag, c.tag[b:b+c.ways]...)
		s.ver = append(s.ver, c.ver[b:b+c.ways]...)
		s.use = append(s.use, c.use[b:b+c.ways]...)
	}
}

// repeats reports whether the round of accesses that took the sets at
// bases from s, saved at tick last, to their current state repeated the
// round before it, which began at tick prev: the same tick delta, the same
// tags and versions, and the same ways touched, each by exactly the tick
// delta. Every use value is at most tick, so a way was touched in a round
// exactly when its use exceeds the tick the round began at. Lookups and
// fills compare only tags, versions and the order of use values within a
// set, and a repeated round leaves that order as it found it, so the next
// round repeats it again.
func (c *l1Cache) repeats(s *l1Sets, bases []int, prev, last uint64) bool {
	dt := c.tick - last
	if dt != last-prev {
		return false
	}
	j := 0
	for _, b := range bases {
		for i := b; i < b+c.ways; i, j = i+1, j+1 {
			now, was := c.use[i] > last, s.use[j] > prev
			if c.tag[i] != s.tag[j] || c.ver[i] != s.ver[j] || now != was || now && c.use[i]-s.use[j] != dt {
				return false
			}
		}
	}
	return true
}

// advance applies m more rounds like the one that began at tick since to
// the sets at bases: the ways that round touched and the tick move on by m
// times its tick delta.
func (c *l1Cache) advance(bases []int, since, m uint64) {
	d := m * (c.tick - since)
	for _, b := range bases {
		for i := b; i < b+c.ways; i++ {
			if c.use[i] > since {
				c.use[i] += d
			}
		}
	}
	c.tick += d
}
