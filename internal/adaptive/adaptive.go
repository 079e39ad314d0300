// Package adaptive implements the runtime tuning mechanism the paper
// leaves as future work (§2.4): "It is fair to assume that no single
// configuration of HCF fits all data structures and workloads, calling for
// an adaptive runtime mechanism to tune the HCF performance."
//
// The mechanism is the Tuner. It watches each operation class in epochs
// and rewrites the class's phase policy from whatever evidence it is
// given. The framework's phase-completion profile is always available:
// classes that keep succeeding privately earn more private attempts (up
// to a cap) and then shed their combining budget, while classes whose
// speculation keeps failing stop burning attempts and reach the combining
// phases sooner. With a metrics recorder and a trace collector attached,
// the same loop also skips TryPrivate for inherently conflicting classes,
// revives parked speculation, resizes combining batches and spreads
// combining classes over spare publication arrays. Every change is
// journaled with the evidence behind it. Because HCF's budgets affect
// performance only — never correctness (§2.1) — tuning is safe while
// operations are in flight.
package adaptive

import "hcf/internal/core"

// ClassSnapshot is one class's entry in a Snapshot: its name and the
// current runtime policy knobs.
type ClassSnapshot struct {
	// Class is the class index; Name its policy name ("" if unnamed).
	Class int    `json:"class"`
	Name  string `json:"name,omitempty"`
	// Policy is the class's current runtime policy state (budgets, batch
	// bound, publication array).
	Policy core.PolicyState `json:"policy"`
}

// Snapshot is a JSON-marshalable picture of a framework's current per-class
// budgets and policies.
type Snapshot struct {
	Classes []ClassSnapshot `json:"classes"`
}

// snapshotOf assembles the per-class policy snapshot of fw.
func snapshotOf(fw *core.Framework) Snapshot {
	var s Snapshot
	for class := 0; class < fw.NumClasses(); class++ {
		s.Classes = append(s.Classes, ClassSnapshot{
			Class:  class,
			Name:   fw.ClassName(class),
			Policy: fw.PolicyState(class),
		})
	}
	return s
}
