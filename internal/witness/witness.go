// Package witness implements serialization-witness linearizability
// checking for the synchronization engines.
//
// Every engine in this repository can report, for each applied operation,
// a serialization stamp: transactional applications use the TL2 commit
// stamp, lock-protected applications tick the same global version clock.
// Sorting all applications by (stamp, intra-batch index) yields a legal
// linearization of the concurrent history. Replaying the operations in
// that order against a trivial sequential model must reproduce every
// result returned to every thread — a strong end-to-end check that the
// engine applied each operation exactly once, atomically, and in an order
// consistent with real-time.
//
// The intra-batch index assumes an order-preserving combiner, one that
// assigns results consistent with applying the batch in the given order.
// A combiner that reorders its batch passes a rank to Check: the four
// ordered sets' key-sorting combiner (setops.Combine) passes setops.Rank.
package witness

import (
	"fmt"
	"sort"
	"sync"

	"hcf/internal/engine"
)

// Entry is one witnessed operation application.
type Entry struct {
	Stamp  uint64
	Intra  int
	Op     engine.Op
	Result uint64
	seq    int // arrival tie-break for deterministic sorting
}

// Recorder collects witnessed applications. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	entries []Entry
}

// Func returns the WitnessFunc to install on an engine.
func (r *Recorder) Func() engine.WitnessFunc {
	return func(stamp uint64, intra int, op engine.Op, result uint64) {
		r.mu.Lock()
		r.entries = append(r.entries, Entry{
			Stamp:  stamp,
			Intra:  intra,
			Op:     op,
			Result: result,
			seq:    len(r.entries),
		})
		r.mu.Unlock()
	}
}

// Len returns the number of recorded applications.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Entries returns a copy of the recorded applications in arrival order.
// Determinism tests compare these across replays: a deterministic schedule
// must reproduce the recording exactly, entry for entry.
func (r *Recorder) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Serialization returns the recorded applications sorted into linearization
// order. rank, when non-nil, orders operations *within* an atomic batch
// (same stamp) ahead of the intra index: combine functions that apply one
// operation kind after the others (e.g. CombineMixed applies the combined
// kind last) need the replay to follow the same in-batch order.
func (r *Recorder) Serialization(rank func(op engine.Op) int) []Entry {
	r.mu.Lock()
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	r.mu.Unlock()
	rk := func(e Entry) int {
		if rank == nil {
			return 0
		}
		return rank(e.Op)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stamp != out[j].Stamp {
			return out[i].Stamp < out[j].Stamp
		}
		if ri, rj := rk(out[i]), rk(out[j]); ri != rj {
			return ri < rj
		}
		if out[i].Intra != out[j].Intra {
			return out[i].Intra < out[j].Intra
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Model is a sequential reference implementation of the data structure
// under test.
type Model interface {
	// Apply runs op against the model and returns the result a sequential
	// execution would produce.
	Apply(op engine.Op) uint64
}

// FlightSource is anything that can dump its most recent lifecycle
// events — typically *trace.Collector, whose per-thread rings make it an
// always-on bounded flight recorder. Declared here as an interface so the
// checker stays independent of the trace package.
type FlightSource interface {
	// FlightDump renders the last n recorded events (0 = all retained).
	FlightDump(n int) string
}

// CheckDump is Check with a flight recorder attached: when the check
// fails, the error carries the last n traced events so the history
// leading up to the violation is visible without a re-run.
func CheckDump(r *Recorder, model Model, expectOps int, rank func(op engine.Op) int, fr FlightSource, n int) error {
	err := Check(r, model, expectOps, rank)
	if err == nil || fr == nil {
		return err
	}
	dump := fr.FlightDump(n)
	if dump == "" {
		return err
	}
	return fmt.Errorf("%w\nflight recorder (most recent events):\n%s", err, dump)
}

// Check replays the recorder's serialization against model and returns an
// error describing the first divergence, if any. expectOps, when >= 0,
// additionally requires exactly that many recorded applications (exactly
// once for every invoked operation). rank orders operations within atomic
// batches; see Serialization.
func Check(r *Recorder, model Model, expectOps int, rank func(op engine.Op) int) error {
	entries := r.Serialization(rank)
	if expectOps >= 0 && len(entries) != expectOps {
		return fmt.Errorf("witnessed %d applications, expected %d", len(entries), expectOps)
	}
	for i, e := range entries {
		want := model.Apply(e.Op)
		if want != e.Result {
			return fmt.Errorf(
				"linearization diverges at position %d (stamp %d, intra %d): engine returned %d, sequential replay gives %d for %T",
				i, e.Stamp, e.Intra, e.Result, want, e.Op)
		}
	}
	return nil
}
