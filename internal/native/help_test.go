package native

import (
	"runtime"
	"testing"
	"time"
)

// witnessed is one recorded application.
type witnessed struct {
	stamp  uint64
	intra  int
	op     Op
	result uint64
}

// helpRig stages the help path deterministically: the holder's
// operation (B == 1) wins the seqlock and holds its critical section
// until the waiter's slot shows Announced, so the waiter's operation is
// announced exactly while a CAS-won writer holds the word. A waiter
// operation with B == 2 holds the helping holder back, once claimed,
// until its owner has parked.
type helpRig struct {
	f              *Framework
	w              paddedWord
	holder, waiter *Handle
	entered        chan struct{}
	recs           []witnessed
}

func newHelpRig(t *testing.T, shouldHelp ShouldHelpFunc) *helpRig {
	t.Helper()
	r := &helpRig{entered: make(chan struct{}, 1)}
	waitFor := func(status uint32) {
		for r.f.slots[r.waiter.id].status.Load() != status {
			runtime.Gosched()
		}
	}
	pol := Policy{
		Name: "Add", TryPrivate: 4, ShouldHelp: shouldHelp,
		Run: func(op Op) uint64 {
			switch op.B {
			case 1:
				r.entered <- struct{}{}
				waitFor(slotAnnounced)
			case 2:
				waitFor(slotParked)
			}
			v := r.w.v.Load() + op.A
			r.w.v.Store(v)
			return v
		},
	}
	f, err := New(Config{Policies: []Policy{pol}, MaxHandles: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.f = f
	r.holder, r.waiter = f.MustHandle(), f.MustHandle()
	// Every application here is a write, so the witness runs with the
	// seqlock held and appends in order.
	f.SetWitness(func(stamp uint64, intra int, op Op, result uint64) {
		r.recs = append(r.recs, witnessed{stamp, intra, op, result})
	})
	return r
}

// run executes the holder's operation on its own goroutine and waiter
// once the holder is inside its critical section.
func (r *helpRig) run(waiter Op) (holderRes, waiterRes uint64) {
	done := make(chan uint64)
	go func() { done <- r.holder.Execute(Op{A: 1, B: 1}) }()
	<-r.entered
	waiterRes = r.waiter.Execute(waiter)
	return <-done, waiterRes
}

// TestSpecWriterHelpsAnnouncedOp: a writer that finds the seqlock held
// announces at once, and the CAS-won holder applies it before release,
// one stamp after its own operation.
func TestSpecWriterHelpsAnnouncedOp(t *testing.T) {
	r := newHelpRig(t, nil)
	v := r.f.Version()
	holderRes, waiterRes := r.run(Op{A: 10})
	if holderRes != 1 || waiterRes != 11 {
		t.Fatalf("results holder=%d waiter=%d, want 1 and 11", holderRes, waiterRes)
	}
	want := []witnessed{{v + 1, 0, Op{A: 1, B: 1}, 1}, {v + 1, 1, Op{A: 10}, 11}}
	if len(r.recs) != 2 || r.recs[0] != want[0] || r.recs[1] != want[1] {
		t.Fatalf("witness %+v, want %+v", r.recs, want)
	}
	if got := r.f.Version(); got != v+2 {
		t.Fatalf("version %d after one critical section, want %d", got, v+2)
	}
	wm := r.f.metrics[r.waiter.id].m
	if wm.Helped != 1 || wm.Announces != 1 || wm.CombinerSessions != 0 || wm.LockAcquisitions != 0 {
		t.Fatalf("waiter metrics %+v, want helped once with no session of its own", wm)
	}
	if wm.SpecAttempts != 1 || wm.SpecAborts != 1 {
		t.Fatalf("waiter spent %d attempts on a held seqlock, want 1", wm.SpecAttempts)
	}
	hm := r.f.metrics[r.holder.id].m
	if hm.SpecWriteHits != 1 || hm.CombinerSessions != 1 || hm.CombinedOps != 2 {
		t.Fatalf("holder metrics %+v, want one write hit heading a 2-op session", hm)
	}
	if s := r.f.slots[r.waiter.id].status.Load(); s != slotFree {
		t.Fatalf("waiter slot status %d after return, want Free", s)
	}
}

// TestSpecWriterShouldHelpRefuses: a CAS-won writer whose ShouldHelp
// refuses leaves the announced operation to its owner's own session and
// counts no session itself.
func TestSpecWriterShouldHelpRefuses(t *testing.T) {
	r := newHelpRig(t, func(mine, other Op) bool { return false })
	v := r.f.Version()
	holderRes, waiterRes := r.run(Op{A: 10})
	if holderRes != 1 || waiterRes != 11 {
		t.Fatalf("results holder=%d waiter=%d, want 1 and 11", holderRes, waiterRes)
	}
	want := []witnessed{{v + 1, 0, Op{A: 1, B: 1}, 1}, {v + 3, 0, Op{A: 10}, 11}}
	if len(r.recs) != 2 || r.recs[0] != want[0] || r.recs[1] != want[1] {
		t.Fatalf("witness %+v, want %+v", r.recs, want)
	}
	hm := r.f.metrics[r.holder.id].m
	if hm.SpecWriteHits != 1 || hm.CombinerSessions != 0 || hm.CombinedOps != 0 {
		t.Fatalf("holder metrics %+v, want a write hit with no session", hm)
	}
	wm := r.f.metrics[r.waiter.id].m
	if wm.Helped != 0 || wm.CombinerSessions != 1 || wm.CombinedOps != 1 || wm.LockAcquisitions != 1 {
		t.Fatalf("waiter metrics %+v, want one self-combined session", wm)
	}
}

// TestSpecWriteLostRaceRetries: a CAS lost to a concurrent version bump
// (the word stays even throughout) spends one trial and retries, so an
// operation either hits after its losses or announces only once its
// whole budget is spent.
func TestSpecWriteLostRaceRetries(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second running goroutine to race the CAS")
	}
	const budget = 4
	pols, _ := counterPolicies(budget)
	f, err := New(Config{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	h := f.MustHandle()
	defer h.Release()
	stop := make(chan struct{})
	bumped := make(chan struct{})
	go func() {
		defer close(bumped)
		for {
			select {
			case <-stop:
				return
			default:
				f.seq.Add(2)
			}
		}
	}()
	defer func() { close(stop); <-bumped }()
	tm := &f.metrics[h.id].m
	deadline := time.Now().Add(10 * time.Second)
	for retried := false; !retried; {
		if time.Now().After(deadline) {
			t.Fatalf("no operation retried after a lost CAS race: %+v", *tm)
		}
		before := *tm
		h.Execute(Op{Class: 0, A: 1})
		attempts := tm.SpecAttempts - before.SpecAttempts
		aborts := tm.SpecAborts - before.SpecAborts
		hit := tm.SpecWriteHits > before.SpecWriteHits
		switch {
		case attempts == 0 || attempts > budget:
			t.Fatalf("%d attempts on a budget of %d", attempts, budget)
		case hit && aborts != attempts-1:
			t.Fatalf("hit after %d attempts with %d aborts", attempts, aborts)
		case !hit && (attempts != budget || aborts != budget):
			t.Fatalf("announced after %d attempts (%d aborts), want the whole budget of %d", attempts, aborts, budget)
		}
		retried = attempts > 1
	}
}
