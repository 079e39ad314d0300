package adaptive

import (
	"math"

	"hcf/internal/core"
	"hcf/internal/htm"
	"hcf/internal/metrics"
	"hcf/internal/trace"
)

// TunerConfig tunes the evidence-driven policy autotuner. Zero fields take
// defaults.
type TunerConfig struct {
	// MinOpsPerEpoch is the number of completions a class needs in an epoch
	// before it is considered (default 64); classes below it accumulate
	// evidence across epochs.
	MinOpsPerEpoch uint64
	// HighPrivate is the private-completion fraction above which a class is
	// treated as conflict-free (default 0.90): its private budget grows and,
	// once capped, its combining budget is dismantled.
	HighPrivate float64
	// LowPrivate is the fraction below which speculation is treated as
	// failing (default 0.40).
	LowPrivate float64
	// SkipConflict is the conflict-abort fraction of a class's finished
	// speculation attempts above which TryPrivate is skipped outright
	// (default 0.75). The skip rule needs trace-layer attribution: without
	// a collector it never fires, and the shrink rule (which respects
	// PrivateFloor) is the strongest response available.
	SkipConflict float64
	// MaxPrivate, MaxVisible and MaxCombining cap the trial budgets
	// (defaults 8, 8, 8).
	MaxPrivate   int
	MaxVisible   int
	MaxCombining int
	// PrivateFloor is the minimum private budget ordinary shrinking will
	// not cut below (default 2). Only the skip-private rule may cut to
	// zero, and only on SkipConflict-grade attribution evidence.
	PrivateFloor int
	// MaxBatchCap caps the combining batch bound (default 32).
	MaxBatchCap int
	// Hysteresis is how many consecutive epochs must agree on a rule before
	// it is applied (default 2) — one noisy epoch never moves a policy.
	Hysteresis int
	// Cooldown is how many epochs a class rests after a policy change
	// before being reconsidered (default 2), so a change's effect is
	// measured before the next one.
	Cooldown int
	// ReviveDegree is the mean combining-degree below which a class parked
	// in the combining phases gets its speculation revived immediately
	// (default 1.5): selections near one operation mean combining is not
	// batching, so its serialization is pure overhead. Needs a trace
	// collector (degree evidence).
	ReviveDegree float64
	// ProbeEpochs is how many qualifying epochs a class may stay parked
	// (below PrivateFloor trials) in the combining phases before the tuner
	// probes speculation again regardless of degree (default 4). A parked
	// class produces no speculative evidence, so the loop must periodically
	// buy some: revive-private re-grants PrivateFloor trials, and the next
	// epochs either keep them (completions go private) or re-park the class
	// through the ordinary skip/shrink rules.
	ProbeEpochs int
	// DriftAlpha is the abort-rate EWMA smoothing factor (default 0.25).
	DriftAlpha float64
	// DriftSwing is the absolute abort-rate deviation from the EWMA that
	// declares workload drift (default 0.30): the class's hysteresis and
	// cooldown reset so re-tuning starts immediately, and the journal
	// records the drift with its evidence.
	DriftSwing float64
	// HotLines is how many hot-line attributions a decision records
	// (default 3).
	HotLines int
}

func (c *TunerConfig) normalize() {
	if c.MinOpsPerEpoch == 0 {
		c.MinOpsPerEpoch = 64
	}
	if c.HighPrivate == 0 {
		c.HighPrivate = 0.90
	}
	if c.LowPrivate == 0 {
		c.LowPrivate = 0.40
	}
	if c.SkipConflict == 0 {
		c.SkipConflict = 0.75
	}
	if c.MaxPrivate == 0 {
		c.MaxPrivate = 8
	}
	if c.MaxVisible == 0 {
		c.MaxVisible = 8
	}
	if c.MaxCombining == 0 {
		c.MaxCombining = 8
	}
	if c.PrivateFloor == 0 {
		c.PrivateFloor = 2
	}
	if c.MaxBatchCap == 0 {
		c.MaxBatchCap = 32
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 2
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2
	}
	if c.ReviveDegree == 0 {
		c.ReviveDegree = 1.5
	}
	if c.ProbeEpochs == 0 {
		c.ProbeEpochs = 4
	}
	if c.DriftAlpha == 0 {
		c.DriftAlpha = 0.25
	}
	if c.DriftSwing == 0 {
		c.DriftSwing = 0.30
	}
	if c.HotLines == 0 {
		c.HotLines = 3
	}
}

// classState is the tuner's per-class memory between epochs.
type classState struct {
	prevPhase   [core.NumPhases]uint64
	prevReasons [htm.NumReasons]uint64
	prevSel     [2]uint64 // {selections, summed size} by this class's combiners
	prevHist    metrics.HistogramSnapshot
	// ewma smooths the abort-rate history for drift detection.
	ewma   float64
	ewmaOK bool
	// streak counts consecutive epochs proposing streakRule (hysteresis).
	streakRule string
	streak     int
	// cooldown is epochs left before the class is reconsidered.
	cooldown int
	// parked counts qualifying epochs spent below PrivateFloor in the
	// combining phases, pacing the revive-private probe.
	parked int
	// combining is the class's combining-phase completions last epoch
	// (scratch for the cross-class spread rule).
	combining uint64
	active    bool
}

// Tuner is the evidence-driven per-class policy autotuner: it closes the
// observability loop by consuming the signals the metrics and trace layers
// already produce — per-class phase-completion profiles, per-class×phase
// attempt taxonomy with conflict attribution (hot cache lines, dominant
// writers), per-class latency histograms and combiner selection sizes —
// and turning them into full phase-policy changes: skipping TryPrivate for
// always-conflicting classes, promoting conflict-free classes out of
// combining, shifting trial budgets, tuning the combining batch bound, and
// spreading combining classes over spare publication arrays.
//
// Both evidence sources are optional: with only the framework's phase
// breakdown the tuner is a budget shifter (grow, promote, shrink, and the
// scheduled revive probe), each extra source enabling the richer rules.
// Every change is recorded in the decision Journal together with the
// evidence that triggered it.
//
// The tuner only ever adjusts performance knobs, so tuning is safe while
// operations are in flight. Call Step periodically from a single thread;
// concurrent Steps are not supported (journal readers need no
// coordination).
type Tuner struct {
	fw  *core.Framework
	rec *metrics.Recorder
	col *trace.Collector
	cfg TunerConfig

	cls     []classState
	journal *Journal
	epoch   uint64

	// spreadStreak/spreadCooldown apply hysteresis to the cross-class
	// spread-array rule.
	spreadStreak   int
	spreadCooldown int

	// Steps counts Step calls (for tests/diagnostics).
	Steps int
}

// NewTuner builds a tuner for fw. rec (latency histograms) and col
// (abort attribution) are optional evidence sources; nil disables the
// rules that need them. The recorder's class dimension and the collector's
// class attribution must be indexed like fw's policies (the harness
// instruments engines exactly that way).
func NewTuner(fw *core.Framework, rec *metrics.Recorder, col *trace.Collector, cfg TunerConfig) *Tuner {
	cfg.normalize()
	t := &Tuner{
		fw:      fw,
		rec:     rec,
		col:     col,
		cfg:     cfg,
		cls:     make([]classState, fw.NumClasses()),
		journal: &Journal{},
	}
	pb := fw.PhaseBreakdown()
	ca := t.classAttempts()
	cs := t.classSelections()
	for class := range t.cls {
		st := &t.cls[class]
		st.prevPhase = pb[class]
		st.prevReasons = sumReasons(ca, class)
		st.prevSel = selOf(cs, class)
		if rec != nil {
			st.prevHist = rec.ClassHistogram(class)
		}
	}
	return t
}

// Journal returns the tuner's decision journal. It is safe to read (and
// export) from any thread at any time.
func (t *Tuner) Journal() *Journal { return t.journal }

// record stamps d with its journal index and appends it (Step is the
// journal's single writer).
func (t *Tuner) record(d Decision) {
	d.Seq = t.journal.Len()
	t.journal.Append(d)
}

// Snapshot reports the framework's current per-class policy state.
func (t *Tuner) Snapshot() Snapshot { return snapshotOf(t.fw) }

// classAttempts snapshots the collector's per-class attempt taxonomy (nil
// without a collector).
func (t *Tuner) classAttempts() [][core.NumPhases][htm.NumReasons]uint64 {
	if t.col == nil {
		return nil
	}
	return t.col.ClassAttempts()
}

// classSelections snapshots the collector's per-class combiner-selection
// totals (nil without a collector).
func (t *Tuner) classSelections() [][2]uint64 {
	if t.col == nil {
		return nil
	}
	return t.col.ClassSelections()
}

// selOf indexes a per-class selection snapshot, tolerating short slices.
func selOf(cs [][2]uint64, class int) [2]uint64 {
	if class >= len(cs) {
		return [2]uint64{}
	}
	return cs[class]
}

// sumReasons folds one class's attempt taxonomy over phases.
func sumReasons(ca [][core.NumPhases][htm.NumReasons]uint64, class int) [htm.NumReasons]uint64 {
	var out [htm.NumReasons]uint64
	if class >= len(ca) {
		return out
	}
	for p := 0; p < core.NumPhases; p++ {
		for r := 0; r < htm.NumReasons; r++ {
			out[r] += ca[class][p][r]
		}
	}
	return out
}

// Step closes the current epoch: it reads each class's evidence deltas
// since the previous Step, detects drift, and applies at most one policy
// change per class (plus at most one cross-class array spread), journaling
// every change. now stamps the epoch's decisions — pass the driving
// thread's clock (th.Now()) so journals replay deterministically.
func (t *Tuner) Step(now int64) {
	t.epoch++
	t.Steps++
	pb := t.fw.PhaseBreakdown()
	ca := t.classAttempts()
	cs := t.classSelections()
	for class := range t.cls {
		st := &t.cls[class]
		st.active = false
		var phase [core.NumPhases]uint64
		var total uint64
		for p := 0; p < core.NumPhases; p++ {
			phase[p] = pb[class][p] - st.prevPhase[p]
			total += phase[p]
		}
		if total < t.cfg.MinOpsPerEpoch {
			continue // not enough signal; keep accumulating
		}
		reasons := sumReasons(ca, class)
		var delta [htm.NumReasons]uint64
		var attempts uint64
		for r := 0; r < htm.NumReasons; r++ {
			delta[r] = reasons[r] - st.prevReasons[r]
			attempts += delta[r]
		}
		sel := selOf(cs, class)
		dSel, dSelOps := sel[0]-st.prevSel[0], sel[1]-st.prevSel[1]
		// Commit the epoch window before deciding anything.
		st.prevPhase = pb[class]
		st.prevReasons = reasons
		st.prevSel = sel
		st.active = true
		st.combining = phase[core.PhaseTryCombining] + phase[core.PhaseCombineUnderLock]

		ev := Evidence{
			Ops:              total,
			PhaseCompletions: phase,
			PrivFrac:         float64(phase[core.PhaseTryPrivate]) / float64(total),
			Attempts:         attempts,
			Peer:             -1,
		}
		if dSel > 0 {
			ev.CombiningDegree = float64(dSelOps) / float64(dSel)
		}
		if attempts > 0 {
			ev.AbortRate = float64(attempts-delta[htm.ReasonNone]) / float64(attempts)
			ev.ConflictFrac = float64(delta[htm.ReasonConflict]) / float64(attempts)
		}
		if t.rec != nil {
			cur := t.rec.ClassHistogram(class)
			d := cur.Sub(&st.prevHist)
			st.prevHist = cur
			if d.Count > 0 {
				ev.P50 = d.Quantile(0.50)
				ev.P99 = d.Quantile(0.99)
			}
		}

		// Drift detection: an abort rate that jumps away from its smoothed
		// history means the workload changed character. Reset hysteresis
		// and cooldown so re-tuning starts now, and journal the evidence.
		if attempts > 0 {
			if st.ewmaOK && math.Abs(ev.AbortRate-st.ewma) > t.cfg.DriftSwing {
				ev.EWMAAbortRate = st.ewma
				ev.HotLines = t.hotLines(class)
				cur := t.fw.PolicyState(class)
				t.record(Decision{
					Epoch: t.epoch, Time: now, Class: class, Name: t.fw.ClassName(class),
					Rule: RuleDrift, Old: cur, New: cur, Evidence: ev,
				})
				st.ewma = ev.AbortRate
				st.streak, st.streakRule, st.cooldown = 0, "", 0
			} else {
				if st.ewmaOK {
					st.ewma += t.cfg.DriftAlpha * (ev.AbortRate - st.ewma)
				} else {
					st.ewma, st.ewmaOK = ev.AbortRate, true
				}
				ev.EWMAAbortRate = st.ewma
			}
		}

		if st.cooldown > 0 {
			st.cooldown--
			continue
		}
		rule := t.decide(class, &ev)
		if rule == "" {
			st.streak, st.streakRule = 0, ""
			continue
		}
		// Hysteresis guards against acting on one noisy epoch — but a
		// revive probe is paced by its own schedule (ProbeEpochs), not
		// triggered by evidence, and granting floor trials is cheap and
		// reversible, so it applies immediately.
		if rule != RuleRevivePrivate {
			if rule != st.streakRule {
				st.streakRule, st.streak = rule, 1
			} else {
				st.streak++
			}
			if st.streak < t.cfg.Hysteresis {
				continue
			}
		}
		t.apply(class, rule, &ev, now)
		st.streak, st.streakRule = 0, ""
		st.cooldown = t.cfg.Cooldown
	}
	t.trySpread(now)
}

// hotLines returns class's top conflict attributions (nil without a
// collector).
func (t *Tuner) hotLines(class int) []trace.HotLine {
	if t.col == nil {
		return nil
	}
	return t.col.ClassHotLines(class, t.cfg.HotLines)
}

// decide proposes a rule for one class from this epoch's evidence, or ""
// when the current policy looks right.
func (t *Tuner) decide(class int, ev *Evidence) string {
	pol := t.fw.PolicyState(class)
	switch {
	case ev.PrivFrac >= t.cfg.HighPrivate:
		// Conflict-free class: speculation wins nearly always.
		if pol.Private < t.cfg.MaxPrivate {
			return RuleGrowPrivate
		}
		if pol.Combining > 0 {
			return RulePromote
		}
	case ev.PrivFrac <= t.cfg.LowPrivate && pol.Private > 0:
		// Configured speculation is failing. With attribution evidence that
		// the failures are conflicts (not capacity or lock pressure), skip
		// TryPrivate outright; otherwise shrink toward combining but keep
		// the floor. A class with zero private trials is deliberately
		// parked, not failing — its PrivFrac of 0 is configuration, not
		// evidence, so it never enters this branch.
		if t.col != nil &&
			ev.Attempts >= t.cfg.MinOpsPerEpoch && ev.ConflictFrac >= t.cfg.SkipConflict {
			return RuleSkipPrivate
		}
		if pol.Private > t.cfg.PrivateFloor || pol.Visible > 0 || pol.Combining < t.cfg.MaxCombining {
			return RuleShrinkPrivate
		}
	}
	// Rules for classes that live in the combining phases, driven by the
	// epoch's mean selection size: combining pays only when batches form.
	combFrac := float64(ev.PhaseCompletions[core.PhaseTryCombining]+ev.PhaseCompletions[core.PhaseCombineUnderLock]) / float64(ev.Ops)
	if combFrac >= 0.5 {
		if pol.Private < t.cfg.PrivateFloor {
			// A parked class yields no speculative evidence, so the loop
			// buys some: immediately when combining degenerates to solo
			// selections (serialization without batching), and otherwise
			// every ProbeEpochs epochs as an exploration probe. The epochs
			// after the revival decide — completions going private keep the
			// trials, conflict-dominated aborts re-park the class.
			st := &t.cls[class]
			st.parked++
			if ev.CombiningDegree > 0 && ev.CombiningDegree < t.cfg.ReviveDegree {
				return RuleRevivePrivate
			}
			if st.parked >= t.cfg.ProbeEpochs {
				return RuleRevivePrivate
			}
		}
		// Batches saturate the bound: widen it; selections stay far below:
		// narrow it (smaller transactions abort less).
		if ev.CombiningDegree >= 0.8*float64(pol.MaxBatch) && pol.MaxBatch < t.cfg.MaxBatchCap {
			return RuleWidenBatch
		}
		if ev.CombiningDegree > 0 && ev.CombiningDegree <= 0.25*float64(pol.MaxBatch) && pol.MaxBatch > 2 {
			return RuleNarrowBatch
		}
	}
	return ""
}

// apply executes rule for class and journals the change. Budgets are
// re-read at apply time and every write is clamped into the tuner's
// bounds, so a concurrent user SetTrials is never echoed back outside
// them.
func (t *Tuner) apply(class int, rule string, ev *Evidence, now int64) {
	old := t.fw.PolicyState(class)
	pol := old
	switch rule {
	case RuleGrowPrivate:
		pol.Private++
	case RulePromote:
		pol.Combining--
	case RuleSkipPrivate:
		pol.Private = 0
		ev.HotLines = t.hotLines(class)
		t.cls[class].parked = 0
	case RuleRevivePrivate:
		pol.Private = t.cfg.PrivateFloor
		t.cls[class].parked = 0
	case RuleShrinkPrivate:
		if pol.Private > t.cfg.PrivateFloor {
			pol.Private--
		}
		if pol.Visible > 0 {
			pol.Visible--
		}
		pol.Combining++
		ev.HotLines = t.hotLines(class)
	case RuleWidenBatch:
		pol.MaxBatch *= 2
	case RuleNarrowBatch:
		pol.MaxBatch /= 2
	}
	// Clamp everything we write; skip-private is the only rule allowed
	// below the floor.
	lo := 0
	if rule != RuleSkipPrivate && old.Private >= t.cfg.PrivateFloor {
		lo = t.cfg.PrivateFloor
	}
	pol.Private = min(max(pol.Private, lo), t.cfg.MaxPrivate)
	pol.Visible = min(max(pol.Visible, 0), t.cfg.MaxVisible)
	pol.Combining = min(max(pol.Combining, 0), t.cfg.MaxCombining)
	pol.MaxBatch = min(max(pol.MaxBatch, 1), t.cfg.MaxBatchCap)
	if pol == old {
		return // nothing to write (and nothing to journal)
	}
	if pol.Private != old.Private || pol.Visible != old.Visible || pol.Combining != old.Combining {
		t.fw.SetTrials(class, pol.Private, pol.Visible, pol.Combining)
	}
	if pol.MaxBatch != old.MaxBatch {
		t.fw.SetMaxBatch(class, pol.MaxBatch)
	}
	t.record(Decision{
		Epoch: t.epoch, Time: now, Class: class, Name: t.fw.ClassName(class),
		Rule: rule, Old: old, New: pol, Evidence: *ev,
	})
}

// trySpread applies the one cross-class rule: when two classes both
// completing work in the combining phases share a publication array and a
// spare array is provisioned (core.Config.ExtraArrays), move the
// lighter class to the spare so the two combiners stop competing for one
// selection lock. At most one move per Step, with the same hysteresis and
// cooldown discipline as the per-class rules.
func (t *Tuner) trySpread(now int64) {
	if t.spreadCooldown > 0 {
		t.spreadCooldown--
		return
	}
	heavy, light := -1, -1
	used := make(map[int]bool, t.fw.NumClasses())
	for class := range t.cls {
		used[t.fw.PubArrayOf(class)] = true
	}
	if len(used) >= t.fw.NumArrays() {
		t.spreadStreak = 0
		return // no spare array to spread onto
	}
	for a := range t.cls {
		sa := &t.cls[a]
		if !sa.active || sa.combining < t.cfg.MinOpsPerEpoch/4 {
			continue
		}
		for bi := a + 1; bi < len(t.cls); bi++ {
			sb := &t.cls[bi]
			if !sb.active || sb.combining < t.cfg.MinOpsPerEpoch/4 {
				continue
			}
			if t.fw.PubArrayOf(a) != t.fw.PubArrayOf(bi) {
				continue
			}
			heavy, light = a, bi
			if sb.combining > sa.combining {
				heavy, light = bi, a
			}
			break
		}
		if heavy >= 0 {
			break
		}
	}
	if heavy < 0 {
		t.spreadStreak = 0
		return
	}
	t.spreadStreak++
	if t.spreadStreak < t.cfg.Hysteresis {
		return
	}
	spare := -1
	for a := 0; a < t.fw.NumArrays(); a++ {
		if !used[a] {
			spare = a
			break
		}
	}
	old := t.fw.PolicyState(light)
	if err := t.fw.SetPubArray(light, spare); err != nil {
		return
	}
	pol := old
	pol.PubArray = spare
	t.record(Decision{
		Epoch: t.epoch, Time: now, Class: light, Name: t.fw.ClassName(light),
		Rule: RuleSpreadArray, Old: old, New: pol,
		Evidence: Evidence{
			Ops:  t.cls[light].combining,
			Peer: heavy,
		},
	})
	t.spreadStreak = 0
	t.spreadCooldown = t.cfg.Cooldown
}
