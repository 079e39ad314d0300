package native

import (
	"testing"

	inative "hcf/internal/native"
	ipq "hcf/internal/native/pqueue"
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
// announce + self-combine path (a queue whose every budget is zero).
func TestPQueueHandleAllocFree(t *testing.T) {
	p, err := NewPQueue(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	checkPQueueAllocs(t, p, "speculative")
	if m := p.Framework().Metrics(); m.SpecWriteHits == 0 || m.SpecReadHits == 0 {
		t.Fatalf("speculative paths not exercised: %+v", m)
	}

	q := ipq.New(1 << 10)
	fw, err := inative.New(Config{Policies: q.Policies(0, 0), MaxHandles: wrapperHandles()})
	if err != nil {
		t.Fatal(err)
	}
	p = &PQueue{fw: fw, q: q}
	checkPQueueAllocs(t, p, "combined")
	if m := fw.Metrics(); m.CombinerSessions == 0 {
		t.Fatalf("combining path not exercised: %+v", m)
	}
}

// checkPQueueAllocs prefills p with 256 keys and requires Insert,
// ExtractMin and PeekMin to run without allocating, on the heap paths and
// on the front buffer's: a burst of inserts below the minimum that fills
// the buffer and spills, then the extracts that drain it.
func checkPQueueAllocs(t *testing.T, p *PQueue, path string) {
	t.Helper()
	h := p.Handle()
	defer h.Release()
	// Prefill keys lie in [1000, 2000), so keys below 1000 undercut them.
	for k := uint64(0); k < 256; k++ {
		h.Insert(1000 + k*7919%1000)
	}
	// AllocsPerRun calls f 201 times; every Insert run is followed by an
	// ExtractMin run of the same length, so the queue returns to its
	// prefill size and never empties or fills.
	k := uint64(0)
	requireZeroAllocs(t, "Insert ("+path+")", func() {
		k = (k + 7919) % 1000
		h.Insert(1000 + k)
	})
	requireZeroAllocs(t, "ExtractMin ("+path+")", func() {
		if _, ok := h.ExtractMin(); !ok {
			t.Fatal("ExtractMin found the prefilled queue empty")
		}
	})
	requireZeroAllocs(t, "PeekMin ("+path+")", func() {
		if _, ok := h.PeekMin(); !ok {
			t.Fatal("PeekMin found the prefilled queue empty")
		}
	})
	const burst = 16 // twice the front buffer
	requireZeroAllocs(t, "Insert+ExtractMin below the minimum ("+path+")", func() {
		for i := uint64(0); i < burst; i++ {
			h.Insert(999 - i)
		}
		for want := uint64(1000 - burst); want < 1000; want++ {
			if k, ok := h.ExtractMin(); !ok || k != want {
				t.Fatalf("burst extract = (%d,%v), want (%d,true)", k, ok, want)
			}
		}
	})
	if p.Len() != 256 {
		t.Fatalf("Len = %d after balanced pairs, want 256", p.Len())
	}
}
