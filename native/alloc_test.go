package native_test

import (
	"testing"

	"hcf/internal/native/pqueue"
	"hcf/native"
)

// requireZeroAllocs fails t when f allocates in steady state.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

// TestPQueueHandleAllocFree pins the shipped queue's handle methods at
// zero allocations per call, on the speculative paths (an uncontended
// handle: validated PeekMin reads and CAS-acquired updates) and on the
// announce + self-combine path (every budget forced to zero).
func TestPQueueHandleAllocFree(t *testing.T) {
	p, err := native.NewPQueue(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handle()
	defer h.Release()
	for k := uint64(0); k < 256; k++ {
		h.Insert(k * 7919 % 1000)
	}
	// AllocsPerRun calls f 201 times; every Insert run is followed by an
	// ExtractMin run of the same length, so the queue returns to its
	// prefill size and never empties or fills.
	k := uint64(0)
	insert := func() {
		k = (k + 7919) % 1000
		h.Insert(k)
	}
	extract := func() {
		if _, ok := h.ExtractMin(); !ok {
			t.Fatal("ExtractMin found the prefilled queue empty")
		}
	}
	peek := func() {
		if _, ok := h.PeekMin(); !ok {
			t.Fatal("PeekMin found the prefilled queue empty")
		}
	}
	check := func(path string) {
		requireZeroAllocs(t, "Insert ("+path+")", insert)
		requireZeroAllocs(t, "ExtractMin ("+path+")", extract)
		requireZeroAllocs(t, "PeekMin ("+path+")", peek)
	}
	check("speculative")
	fw := p.Framework()
	if m := fw.Metrics(); m.SpecWriteHits == 0 || m.SpecReadHits == 0 {
		t.Fatalf("speculative paths not exercised: %+v", m)
	}

	fw.SetTryPrivate(pqueue.ClassInsert, 0)
	fw.SetTryPrivate(pqueue.ClassExtractMin, 0)
	fw.SetTryPrivate(pqueue.ClassPeekMin, 0)
	check("combined")
	if m := fw.Metrics(); m.CombinerSessions == 0 {
		t.Fatalf("combining path not exercised: %+v", m)
	}
	if p.Len() != 256 {
		t.Fatalf("Len = %d after balanced pairs, want 256", p.Len())
	}
}
