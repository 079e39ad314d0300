package native

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// Wake tokens and combiner affinity. A holder posts a wake token only to
// an owner that marked its slot Parked, so every other helped operation
// leaves the slot channel empty; a handle whose last update was helped
// announces at once and leaves the word to its helper for affinitySpins
// wait iterations, then competes for it as before. A lost or stray token
// would hang an owner or a holder, so each test runs its operations under
// a deadline and fails instead of hanging the suite.

// protocolDeadline bounds every staged run below (with delay_test.go's
// within); each finishes in milliseconds unless a wake token is lost or a
// holder blocks on a stray one.
const protocolDeadline = 20 * time.Second

// TestParkedOwnerWokenOnce: an owner whose claimed operation is held
// back spins out, marks its slot Parked and blocks; the holder's swap to
// Done finds Parked and posts exactly one token, which the owner takes.
func TestParkedOwnerWokenOnce(t *testing.T) {
	r := newHelpRig(t, nil)
	var holderRes, waiterRes uint64
	within(t, protocolDeadline, "parked owner", func() { holderRes, waiterRes = r.run(Op{A: 10, B: 2}) })
	if holderRes != 1 || waiterRes != 11 {
		t.Fatalf("results holder=%d waiter=%d, want 1 and 11", holderRes, waiterRes)
	}
	s := &r.f.slots[r.waiter.id]
	if n := len(s.park); n != 0 {
		t.Fatalf("%d wake tokens left on the parked owner's channel, want 0", n)
	}
	if st := s.status.Load(); st != slotFree {
		t.Fatalf("waiter slot status %d after return, want Free", st)
	}
	if wm := r.f.metrics[r.waiter.id].m; wm.Parks != 1 || wm.Helped != 1 {
		t.Fatalf("waiter metrics %+v, want one park and one helped op", wm)
	}
}

// TestParkNoTokenForUnparkedOwners: helped operations whose owners never
// parked leave no token behind. First the owner's side is replayed by
// hand, so it never parks; then a real owner is helped round after round,
// and its channel is empty after each.
func TestParkNoTokenForUnparkedOwners(t *testing.T) {
	pols, _ := counterPolicies(8)
	f, err := New(Config{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	h, other := f.MustHandle(), f.MustHandle()
	s := &f.slots[other.id]
	const rounds = 1000
	helped := 0
	within(t, protocolDeadline, "hand-replayed helped ops", func() {
		for i := 0; i < rounds; i++ {
			s.op = Op{Class: 0, A: 1}
			s.status.Store(slotAnnounced)
			h.Execute(Op{Class: 0, A: 1})
			if s.status.Load() == slotDone {
				helped++
			}
			s.status.Store(slotFree)
		}
	})
	if helped != rounds {
		t.Fatalf("spec writer helped %d of %d announced ops", helped, rounds)
	}
	if n := len(s.park); n != 0 {
		t.Fatalf("%d wake tokens after %d helped ops that never parked, want 0", n, rounds)
	}

	r := newHelpRig(t, nil)
	rs := &r.f.slots[r.waiter.id]
	for i := 0; i < 200; i++ {
		within(t, protocolDeadline, "helped round", func() { r.run(Op{A: 10}) })
		if n := len(rs.park); n != 0 {
			t.Fatalf("round %d: %d wake tokens on an owner that is not parked, want 0", i, n)
		}
	}
	if wm := r.f.metrics[r.waiter.id].m; wm.Helped != 200 {
		t.Fatalf("waiter metrics %+v, want every round helped", wm)
	}
}

// TestAffinityHelperGone: a handle whose last update was helped skips
// speculation and announces at once. When its helper then goes idle or
// releases its handle, nobody comes back to help, so after at most
// affinitySpins yields it takes the word and applies the operation
// itself, which clears the affinity: its next update speculates again.
func TestAffinityHelperGone(t *testing.T) {
	for _, release := range []bool{false, true} {
		r := newHelpRig(t, nil)
		r.run(Op{A: 10})
		if !r.waiter.helped {
			t.Fatal("helped waiter has no affinity")
		}
		if release {
			r.holder.Release()
		}
		wm := &r.f.metrics[r.waiter.id].m
		before := *wm
		var res uint64
		within(t, protocolDeadline, "helped handle's next op", func() { res = r.waiter.Execute(Op{A: 100}) })
		if res != 111 {
			t.Fatalf("release=%v: result %d, want 111", release, res)
		}
		if wm.SpecAttempts != before.SpecAttempts || wm.Announces != before.Announces+1 {
			t.Fatalf("release=%v: metrics %+v after %+v, want an announce with no speculation", release, *wm, before)
		}
		if wm.LockAcquisitions != before.LockAcquisitions+1 || wm.Helped != before.Helped || wm.Parks != before.Parks {
			t.Fatalf("release=%v: metrics %+v after %+v, want one lock acquisition of its own", release, *wm, before)
		}
		if r.waiter.helped {
			t.Fatalf("release=%v: affinity kept after applying its own update", release)
		}
		before = *wm
		r.waiter.Execute(Op{A: 1})
		if wm.SpecWriteHits != before.SpecWriteHits+1 {
			t.Fatalf("release=%v: metrics %+v after %+v, want the next update to speculate and hit", release, *wm, before)
		}
	}
}

// TestAffinityRandomStops: eight goroutines add 1 to a shared counter
// and each stops at a random point, half releasing their handles and
// half leaving them registered but idle. Handles helped by one that
// stopped must go on alone: every goroutine finishes under the deadline,
// and the returned totals are exactly 1..N, each once.
func TestAffinityRandomStops(t *testing.T) {
	const goroutines, opsMax = 8, 4000
	pols, w := counterPolicies(4)
	f, err := New(Config{Policies: pols, MaxHandles: goroutines})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(38, 0xAFF))
	results := make([][]uint64, goroutines)
	idle := make(chan struct{})
	defer close(idle)
	var ran sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		stop := 1 + rng.IntN(opsMax)
		ran.Add(1)
		go func(g int) {
			h := f.MustHandle()
			for i := 0; i < stop; i++ {
				results[g] = append(results[g], h.Execute(Op{Class: 0, A: 1}))
			}
			if g%2 == 0 {
				h.Release()
				ran.Done()
				return
			}
			ran.Done()
			<-idle
		}(g)
	}
	within(t, protocolDeadline, "goroutines stopping at random points", ran.Wait)
	seen := map[uint64]bool{}
	n := 0
	for _, rs := range results {
		n += len(rs)
		for _, v := range rs {
			seen[v] = true
		}
	}
	total := w.v.Load()
	if uint64(n) != total || len(seen) != n {
		t.Fatalf("%d ops returned %d distinct totals, counter reads %d", n, len(seen), total)
	}
	for v := uint64(1); v <= total; v++ {
		if !seen[v] {
			t.Fatalf("total %d never returned", v)
		}
	}
}
