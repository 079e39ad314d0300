package memsim

// Schedule exploration: adversarial perturbation of the deterministic
// scheduler.
//
// The baseline DetEnv schedule is the minimum-virtual-time schedule — for a
// given cost model and workload seed it explores exactly one interleaving.
// That is ideal for reproducible performance experiments and useless for
// hunting ordering bugs: handoff windows (announce-then-speculate, combiner
// adoption, waiter parking) only misbehave under interleavings the min-clock
// schedule never produces.
//
// ExploreConfig turns the scheduler into a deterministic adversary, with two
// composable mechanisms:
//
//   - Randomized priorities (PCT-style): every worker thread gets a priority
//     offset ("boost", in virtual cycles) drawn from a seeded generator. The
//     scheduler orders runnable threads by (clock + boost, id) instead of
//     (clock, id), so threads run early or late relative to the fair
//     schedule — bounded by the boost span, so no thread starves.
//   - Preemption-point injection: at scheduling points the current thread
//     is, with small probability and up to PreemptBudget times per run,
//     handed a fresh (usually larger) boost mid-operation — forcing a
//     context switch inside windows the min-clock schedule would run
//     through atomically, e.g. between a status store and the matching
//     publication-array store, or in the middle of a transaction's
//     lock-subscription window.
//
// Every decision is drawn from a splitmix64 generator seeded by
// ExploreConfig.Seed and advanced only at scheduling points of the (single)
// running thread, so exploration is fully deterministic: the same
// (DetConfig, workload) replays the same perturbed schedule bit-for-bit.
// With a zero ExploreConfig the boost slice stays nil and every comparison
// reduces to the PR 3 fast path — non-explore runs are bit-identical to the
// golden fixtures.

// ExploreConfig configures adversarial schedule exploration. The zero value
// disables exploration entirely.
type ExploreConfig struct {
	// Seed seeds the exploration generator. Distinct seeds explore distinct
	// schedules; equal seeds replay bit-identically.
	Seed uint64
	// PreemptBudget bounds how many forced preemptions are injected per
	// run. 0 injects none (priority jitter only, if JitterClass > 0).
	PreemptBudget int
	// JitterClass selects the priority-perturbation intensity: 0 keeps all
	// threads at the fair schedule between injections, 1..3 draw initial
	// per-thread priority offsets (and injection boosts) from spans of
	// roughly 1Ki, 8Ki and 64Ki virtual cycles respectively. Values above 3
	// are clamped.
	JitterClass int
}

// enabled reports whether the configuration turns exploration on.
func (c ExploreConfig) enabled() bool {
	return c.PreemptBudget > 0 || c.JitterClass > 0
}

// boostSpan returns the half-open range [0, span) boosts are drawn from.
func (c ExploreConfig) boostSpan() int64 {
	class := c.JitterClass
	if class <= 0 {
		class = 1 // injection-only mode still needs a nonzero kick
	}
	if class > 3 {
		class = 3
	}
	// Class 1/2/3 -> 1Ki/8Ki/64Ki virtual cycles: from a fraction of one
	// operation up to several whole operations of reordering.
	return 1024 << (3 * uint(class-1))
}

// explore is the per-environment exploration state.
type explore struct {
	cfg    ExploreConfig
	rng    uint64 // splitmix64 state
	span   int64  // boost draw span
	budget int    // remaining forced preemptions this run
	// Injected counts forced preemptions actually performed (for tests and
	// the sweep driver's reporting).
	injected int
}

// expDraw advances the exploration generator one splitmix64 step.
func (x *explore) draw() uint64 {
	x.rng += 0x9E3779B97F4A7C15
	z := x.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Explored reports whether the environment runs with schedule exploration.
func (e *DetEnv) Explored() bool { return e.exp != nil }

// PreemptionsInjected returns how many forced preemptions the explorer has
// performed since the environment was created.
func (e *DetEnv) PreemptionsInjected() int {
	if e.exp == nil {
		return 0
	}
	return e.exp.injected
}

// resetExplore re-arms the explorer at the start of a Run: the budget
// refills and, when priority jitter is on, every worker thread draws a
// fresh initial boost. Draw order is fixed (thread 0..n-1), so the schedule
// depends only on (config, seed).
func (e *DetEnv) resetExplore() {
	x := e.exp
	x.budget = x.cfg.PreemptBudget
	for t := 0; t < e.n; t++ {
		if x.cfg.JitterClass > 0 {
			e.boost[t] = int64(x.draw() % uint64(x.span))
		} else {
			e.boost[t] = 0
		}
	}
}

// explorePoint is the scheduling point of an exploring environment. It
// replaces DetEnv.schedPoint's fast path for the current thread t: one
// generator step decides whether to inject a forced preemption (budget
// permitting), then the usual minimum test runs over boosted clocks.
func (e *DetEnv) explorePoint(t int) {
	x := e.exp
	// One draw per scheduling point keeps the decision stream a pure
	// function of the (deterministic) event stream.
	d := x.draw()
	if x.budget > 0 && d&1023 < 16 { // ~1.6% of scheduling points
		// Redraw the running thread's priority with an extra span of
		// penalty: mid-window, this usually makes t non-minimal and forces
		// the switch the fair schedule would never take here.
		e.boost[t] = x.span + int64(x.draw()%uint64(x.span))
		x.budget--
		x.injected++
	}
	// Keeping t running selects it at its (possibly redrawn) key, which
	// the dormant waiters' frontier must cover (see DetEnv.wake).
	ids := e.sched.ids
	if len(ids) == 0 || e.before(e.clocks[t]+e.boost[t], int32(t), ids[0]) {
		e.selected(int32(t))
		return
	}
	e.switchTo(t)
}
