package native

import "testing"

// Zero-allocation gates for the submit fast paths. Steady-state
// operation submission must not allocate: operations are value structs,
// publication slots and combiner scratch are preallocated at Handle
// time, and parking channels are created once per slot. A regression
// here silently destroys the wall-clock wins the backend exists for.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

func TestExecuteAllocFree(t *testing.T) {
	pols, _ := counterPolicies(8)
	f, err := New(Config{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	h := f.MustHandle()
	defer h.Release()
	// Uncontended: every op completes on a speculative path.
	requireZeroAllocs(t, "spec write hit", func() { h.Execute(Op{Class: 0, A: 1}) })
	requireZeroAllocs(t, "spec read hit", func() { h.Execute(Op{Class: 1}) })
	m := f.Metrics()
	if m.SpecReadHits == 0 || m.SpecWriteHits == 0 {
		t.Fatalf("fast paths not exercised: %+v", m)
	}
}

func TestCombinedApplyAllocFree(t *testing.T) {
	// Zero budget forces announce -> self-combine on every op: the full
	// slot protocol plus a combiner session, still allocation-free —
	// also with a commit delay, whose session timing must not allocate.
	for _, c := range []struct {
		name  string
		delay int
	}{{"combined self-apply", 0}, {"combined self-apply with delay", 16}} {
		pols, _ := counterPolicies(0)
		pols[0].CombineDelay = c.delay
		f, err := New(Config{Policies: pols})
		if err != nil {
			t.Fatal(err)
		}
		h := f.MustHandle()
		h.Execute(Op{Class: 0, A: 1}) // warm the path once
		requireZeroAllocs(t, c.name, func() { h.Execute(Op{Class: 0, A: 1}) })
		if m := f.Metrics(); m.CombinerSessions == 0 {
			t.Fatalf("%s: combining path not exercised: %+v", c.name, m)
		}
		h.Release()
	}
}

func TestSpecWriteHelpAllocFree(t *testing.T) {
	// A spec write that finds another handle's operation announced claims
	// it, applies it and publishes it before its release; the owner's
	// side (collect, free the slot, drain the wake token) is replayed by
	// hand so every run finds the slot announced again.
	pols, _ := counterPolicies(8)
	f, err := New(Config{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	h, other := f.MustHandle(), f.MustHandle()
	defer h.Release()
	defer other.Release()
	s := &f.slots[other.id]
	requireZeroAllocs(t, "spec write that helps an announced op", func() {
		s.op = Op{Class: 0, A: 1}
		s.status.Store(slotAnnounced)
		h.Execute(Op{Class: 0, A: 1})
		if s.status.Load() != slotDone {
			t.Fatal("announced op not helped by the spec writer")
		}
		s.status.Store(slotFree)
		drainPark(s)
	})
	if m := f.Metrics(); m.SpecWriteHits == 0 || m.CombinerSessions == 0 || m.CombinedOps != 2*m.CombinerSessions {
		t.Fatalf("help path not exercised: %+v", m)
	}
}
