package adaptive

import (
	"fmt"
	"strings"

	"hcf/internal/core"
	"hcf/internal/journal"
	"hcf/internal/trace"
)

// Tuning rules. Every journal entry names the rule that fired, so a policy
// change is always traceable to the condition (and evidence) behind it.
const (
	// RuleSkipPrivate cuts TryPrivate to zero trials for a class whose
	// speculation keeps dying on conflicts — the hot-line attribution shows
	// the class is inherently conflicting, so private attempts only burn
	// cycles before combining does the work.
	RuleSkipPrivate = "skip-private"
	// RuleGrowPrivate gives a class whose operations keep committing
	// privately more speculation budget.
	RuleGrowPrivate = "grow-private"
	// RulePromote moves a conflict-free class out of the combining phases:
	// speculation wins essentially always, so combining budget is dead
	// weight that only delays the (rare) fallback.
	RulePromote = "promote-out-of-combining"
	// RuleShrinkPrivate shifts budget from failing speculation toward the
	// combining phases.
	RuleShrinkPrivate = "shrink-private"
	// RuleRevivePrivate re-grants speculation to a class parked in the
	// combining phases — immediately when its selections stay near one
	// operation (combining without batching is pure overhead), and
	// periodically as an exploration probe: a parked class produces no
	// speculative evidence, so the loop must occasionally buy some. The
	// epochs after the revival decide whether the trials stay.
	RuleRevivePrivate = "revive-private"
	// RuleWidenBatch doubles the combining batch bound when combiners keep
	// selecting about as many operations as they are allowed to batch.
	RuleWidenBatch = "widen-batch"
	// RuleNarrowBatch halves the combining batch bound when selections stay
	// far below it.
	RuleNarrowBatch = "narrow-batch"
	// RuleSpreadArray reassigns a combining class to a spare publication
	// array so two combining classes stop competing for one selection lock.
	RuleSpreadArray = "spread-array"
	// RuleDrift records a detected workload shift: the class's abort rate
	// jumped away from its smoothed history. The policy is not changed by
	// the drift entry itself; it resets the class's hysteresis so the
	// following epochs can re-tune from fresh evidence.
	RuleDrift = "drift-reset"
)

// Evidence is the measurement set that triggered one decision — the
// observability loop's receipts. Counter fields are per-epoch deltas;
// HotLines and CombiningDegree aggregate the run so far.
type Evidence struct {
	// Ops is the class's completions this epoch, split in PhaseCompletions.
	Ops              uint64                 `json:"ops"`
	PhaseCompletions [core.NumPhases]uint64 `json:"phase_completions"`
	// PrivFrac is the fraction of completions in TryPrivate.
	PrivFrac float64 `json:"priv_frac"`
	// Attempts counts the class's finished speculation attempts this epoch
	// (trace layer); AbortRate and ConflictFrac are fractions of it.
	Attempts     uint64  `json:"attempts,omitempty"`
	AbortRate    float64 `json:"abort_rate,omitempty"`
	ConflictFrac float64 `json:"conflict_frac,omitempty"`
	// EWMAAbortRate is the smoothed abort-rate history the epoch was
	// compared against (drift detection).
	EWMAAbortRate float64 `json:"ewma_abort_rate,omitempty"`
	// P50 and P99 are the class's operation-latency quantiles this epoch
	// (metrics layer; absent without a recorder).
	P50 uint64 `json:"p50,omitempty"`
	P99 uint64 `json:"p99,omitempty"`
	// CombiningDegree is the class's mean combiner selection size this
	// epoch (0 when no combiner of this class made a selection).
	CombiningDegree float64 `json:"combining_degree,omitempty"`
	// HotLines attributes the class's conflict aborts to cache lines and
	// dominant writer threads (trace layer).
	HotLines []trace.HotLine `json:"hot_lines,omitempty"`
	// Peer is the other class involved in a cross-class decision
	// (spread-array), -1 otherwise.
	Peer int `json:"peer"`
}

// Decision is one journal entry: which rule fired for which class at what
// time, the policy before and after, and the evidence that triggered it.
type Decision struct {
	// Seq is the entry's index in the journal, set by the appending
	// Tuner.
	Seq int `json:"seq"`
	// Epoch is the tuner epoch (Step call) that produced the decision.
	Epoch uint64 `json:"epoch"`
	// Time is the virtual (or wall) timestamp passed to Step.
	Time int64 `json:"time"`
	// Class and Name identify the operation class.
	Class int    `json:"class"`
	Name  string `json:"class_name,omitempty"`
	// Rule names the tuning rule that fired.
	Rule string `json:"rule"`
	// Old and New are the class's policy state before and after.
	Old core.PolicyState `json:"old"`
	New core.PolicyState `json:"new"`
	// Evidence is the measurement set behind the decision.
	Evidence Evidence `json:"evidence"`
}

// Journal is the tuner's decision log: the shared single-writer,
// lock-free-reader journal.Log (the thread driving Tuner.Step appends), so
// any thread may snapshot, tail, render or export it while the run it
// documents is still going. Its JSON is byte-identical across runs of the
// same seed on the deterministic backend.
type Journal struct {
	journal.Log[Decision]
}

// Text renders the journal as a human-readable log, one decision per line.
func (j *Journal) Text() string {
	var b strings.Builder
	for _, d := range j.Entries() {
		name := d.Name
		if name == "" {
			name = fmt.Sprintf("class%d", d.Class)
		}
		fmt.Fprintf(&b, "#%-3d epoch %-4d @%-10d %-12s %-24s", d.Seq, d.Epoch, d.Time, name, d.Rule)
		if d.Old != d.New {
			fmt.Fprintf(&b, " %d/%d/%d b%d a%d -> %d/%d/%d b%d a%d",
				d.Old.Private, d.Old.Visible, d.Old.Combining, d.Old.MaxBatch, d.Old.PubArray,
				d.New.Private, d.New.Visible, d.New.Combining, d.New.MaxBatch, d.New.PubArray)
		}
		ev := &d.Evidence
		fmt.Fprintf(&b, "  (ops %d, priv %.0f%%", ev.Ops, ev.PrivFrac*100)
		if ev.Attempts > 0 {
			fmt.Fprintf(&b, ", abort %.0f%% conflict %.0f%% of %d attempts",
				ev.AbortRate*100, ev.ConflictFrac*100, ev.Attempts)
		}
		if d.Rule == RuleDrift {
			fmt.Fprintf(&b, ", ewma %.2f", ev.EWMAAbortRate)
		}
		if ev.P99 > 0 {
			fmt.Fprintf(&b, ", p50 %d p99 %d", ev.P50, ev.P99)
		}
		if ev.CombiningDegree > 0 {
			fmt.Fprintf(&b, ", degree %.1f", ev.CombiningDegree)
		}
		for _, hl := range ev.HotLines {
			fmt.Fprintf(&b, "; hot line %d (%d aborts", hl.Line, hl.Aborts)
			if hl.TopWriter >= 0 {
				fmt.Fprintf(&b, ", top writer t%d", hl.TopWriter)
			}
			b.WriteString(")")
		}
		b.WriteString(")\n")
	}
	return b.String()
}
