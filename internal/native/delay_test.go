package native

import (
	"sync"
	"testing"
	"time"
)

// batchCounter is a one-class counter whose RunMulti records each
// batch's size (RunMulti runs under the seqlock, so appends are ordered)
// and optionally sleeps, standing in for a per-batch flush.
type batchCounter struct {
	w       paddedWord
	sleep   time.Duration
	batches []int
	applied time.Duration // total time spent inside RunMulti
}

func (c *batchCounter) policy(delay int) Policy {
	return Policy{
		Name: "Add", TryPrivate: 0, CombineDelay: delay,
		Run: func(op Op) uint64 { v := c.w.v.Load() + op.A; c.w.v.Store(v); return v },
		RunMulti: func(ops []Op, res []uint64, done []bool) {
			t0 := time.Now()
			c.batches = append(c.batches, len(ops))
			v := c.w.v.Load()
			for i, op := range ops {
				v += op.A
				res[i] = v
				done[i] = true
			}
			c.w.v.Store(v)
			if c.sleep > 0 {
				time.Sleep(c.sleep)
			}
			c.applied += time.Since(t0)
		},
	}
}

// within runs fn and fails the test if it has not returned by limit, so
// a delay that ignores its bounds fails instead of hanging the suite.
func within(t *testing.T, limit time.Duration, what string, fn func()) time.Duration {
	t.Helper()
	done := make(chan struct{})
	t0 := time.Now()
	go func() { defer close(done); fn() }()
	select {
	case <-done:
		return time.Since(t0)
	case <-time.After(limit):
		t.Fatalf("%s did not finish within %v", what, limit)
		return 0
	}
}

// TestCommitDelaySoloHandle: with one registered handle nobody can join
// a batch, so a combiner skips its delay at once — even when the delay
// bound is 2^30 yields and the session average is an hour.
func TestCommitDelaySoloHandle(t *testing.T) {
	c := &batchCounter{}
	f, err := New(Config{Policies: []Policy{c.policy(1 << 30)}})
	if err != nil {
		t.Fatal(err)
	}
	f.budgets[0].sessionNS.Store(int64(time.Hour))
	h := f.MustHandle()
	defer h.Release()
	const ops = 1000
	elapsed := within(t, 5*time.Second, "solo ops", func() {
		for i := 0; i < ops; i++ {
			h.Execute(Op{A: 1})
		}
	})
	if elapsed > time.Second/2 {
		t.Errorf("%d solo ops took %v, want well under a second", ops, elapsed)
	}
	if got := c.w.v.Load(); got != ops {
		t.Fatalf("counter = %d, want %d", got, ops)
	}
	for i, n := range c.batches {
		if n != 1 {
			t.Fatalf("batch %d has %d ops, want 1", i, n)
		}
	}
}

// TestCommitDelayCappedBySessionCost: a second registered handle that
// never announces keeps the "nobody left" rule from firing, so the delay
// must end once it has cost as much as the session it could save. Total
// time is then bounded by the flushes (~50µs sleeps), not by 2^30 yields
// per op.
func TestCommitDelayCappedBySessionCost(t *testing.T) {
	c := &batchCounter{sleep: 50 * time.Microsecond}
	f, err := New(Config{Policies: []Policy{c.policy(1 << 30)}})
	if err != nil {
		t.Fatal(err)
	}
	h := f.MustHandle()
	defer h.Release()
	idle := f.MustHandle()
	defer idle.Release()
	const ops = 200
	elapsed := within(t, 20*time.Second, "ops beside an idle handle", func() {
		for i := 0; i < ops; i++ {
			h.Execute(Op{A: 1})
		}
	})
	// Each delay is at most the moving average of earlier sessions plus
	// one yield; the seeding sample counts at most 8 times over.
	if limit := 3*c.applied + 50*time.Millisecond; elapsed > limit {
		t.Errorf("%d ops took %v; flushes took %v, want under %v", ops, elapsed, c.applied, limit)
	}
	if got := c.w.v.Load(); got != ops {
		t.Fatalf("counter = %d, want %d", got, ops)
	}
	if avg := f.budgets[0].sessionNS.Load(); avg < int64(c.sleep) {
		t.Errorf("session average %dns, want at least the %v flush", avg, c.sleep)
	}
}

// TestCommitDelayClaimsAllAnnounced: when every other handle has already
// announced, the combiner stops waiting and claims all of them in one
// batch. The seqlock is held while four owners announce, then released;
// whichever wins it must combine all four.
func TestCommitDelayClaimsAllAnnounced(t *testing.T) {
	const owners = 4
	c := &batchCounter{}
	f, err := New(Config{Policies: []Policy{c.policy(1 << 30)}, MaxHandles: owners})
	if err != nil {
		t.Fatal(err)
	}
	f.budgets[0].sessionNS.Store(int64(time.Hour))
	hs := make([]*Handle, owners)
	for i := range hs {
		hs[i] = f.MustHandle()
	}
	v := f.seq.Load()
	if !f.seq.CompareAndSwap(v, v+1) {
		t.Fatal("could not take the idle seqlock")
	}
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			h.Execute(Op{A: 1})
			h.Release()
		}(h)
	}
	for i := range f.slots {
		for f.slots[i].status.Load() != slotAnnounced {
			time.Sleep(10 * time.Microsecond)
		}
	}
	f.seq.Store(v + 2)
	within(t, 5*time.Second, "announced owners", wg.Wait)
	if len(c.batches) != 1 || c.batches[0] != owners {
		t.Fatalf("batches %v, want one batch of %d", c.batches, owners)
	}
	if got := c.w.v.Load(); got != owners {
		t.Fatalf("counter = %d, want %d", got, owners)
	}
}

// TestCommitDelayOffSkipsTiming: only classes with a CombineDelay time
// their sessions; the rest never touch their moving average.
func TestCommitDelayOffSkipsTiming(t *testing.T) {
	off, on := &batchCounter{}, &batchCounter{}
	pols := []Policy{off.policy(0), on.policy(1)}
	f, err := New(Config{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	h := f.MustHandle()
	defer h.Release()
	for i := 0; i < 10; i++ {
		h.Execute(Op{Class: 0, A: 1})
		h.Execute(Op{Class: 1, A: 1})
	}
	if got := f.budgets[0].sessionNS.Load(); got != 0 {
		t.Errorf("CombineDelay 0 class session average = %d, want 0", got)
	}
	if got := f.budgets[1].sessionNS.Load(); got <= 0 {
		t.Errorf("CombineDelay 1 class session average = %d, want > 0", got)
	}
}

// TestCommitDelayZeroBudgetBesideIdleHandle: an idle second handle keeps
// the "nobody left" rule from firing, and the session average is an
// hour, but no session has claimed a joiner, so the expected saving is
// zero and the delay never starts.
func TestCommitDelayZeroBudgetBesideIdleHandle(t *testing.T) {
	c := &batchCounter{}
	f, err := New(Config{Policies: []Policy{c.policy(1 << 30)}})
	if err != nil {
		t.Fatal(err)
	}
	f.budgets[0].sessionNS.Store(int64(time.Hour))
	h := f.MustHandle()
	defer h.Release()
	idle := f.MustHandle()
	defer idle.Release()
	const ops = 1000
	elapsed := within(t, 5*time.Second, "ops beside an idle handle", func() {
		for i := 0; i < ops; i++ {
			h.Execute(Op{A: 1})
		}
	})
	if elapsed > time.Second/2 {
		t.Errorf("%d ops took %v, want well under a second", ops, elapsed)
	}
	if got := c.w.v.Load(); got != ops {
		t.Fatalf("counter = %d, want %d", got, ops)
	}
	if got := f.budgets[0].joined.Load(); got != 0 {
		t.Errorf("joined = %d after solo sessions, want 0", got)
	}
}

// TestCommitDelayJoinedCountsDelayClasses: a put-led session that claims
// another owner's read adds nothing to the joiner average, since a read
// shares no flush; one that claims another owner's put does. The owner is
// announced while the test holds the seqlock, and the test then runs the
// combining session itself.
func TestCommitDelayJoinedCountsDelayClasses(t *testing.T) {
	for _, c := range []struct {
		name   string
		class  int
		joined bool
	}{{"read joiner", 1, false}, {"put joiner", 0, true}} {
		t.Run(c.name, func(t *testing.T) {
			put, get := &batchCounter{}, &batchCounter{}
			f, err := New(Config{Policies: []Policy{put.policy(1 << 30), get.policy(0)}, MaxHandles: 2})
			if err != nil {
				t.Fatal(err)
			}
			combiner, other := f.MustHandle(), f.MustHandle()
			v := f.seq.Load()
			if !f.seq.CompareAndSwap(v, v+1) {
				t.Fatal("could not take the idle seqlock")
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				other.Execute(Op{Class: c.class, A: 1})
			}()
			for f.slots[other.id].status.Load() != slotAnnounced {
				time.Sleep(10 * time.Microsecond)
			}
			own := &f.slots[combiner.id]
			own.op = Op{Class: 0, A: 1}
			own.status.Store(slotAnnounced)
			if _, ok := combiner.runCombiner(&f.policies[0], &f.budgets[0], v+1, &f.metrics[combiner.id].m); !ok {
				t.Fatal("combiner found its own operation already done")
			}
			f.seq.Store(v + 2)
			within(t, 5*time.Second, "claimed owner", func() { <-done })
			if len(put.batches) != 1 || put.batches[0] != 2 {
				t.Fatalf("put batches %v, want one batch of 2", put.batches)
			}
			if got := f.budgets[0].joined.Load(); (got > 0) != c.joined {
				t.Errorf("joined = %d, want > 0: %v", got, c.joined)
			}
		})
	}
}

// TestCommitDelayWaitsForExpectedJoiner: once sessions have been taking
// joiners, the delay is live again. A combiner that holds the seqlock
// with an hour-long budget keeps waiting for the one idle handle and
// claims its operation when it announces inside the window.
func TestCommitDelayWaitsForExpectedJoiner(t *testing.T) {
	c := &batchCounter{}
	f, err := New(Config{Policies: []Policy{c.policy(1 << 30)}, MaxHandles: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.budgets[0].sessionNS.Store(int64(time.Hour))
	f.budgets[0].joined.Store(joinedOne)
	first, late := f.MustHandle(), f.MustHandle()
	done := make(chan struct{})
	go func() {
		defer close(done)
		first.Execute(Op{A: 1})
	}()
	// Only first's combiner can make the seqlock odd, and it keeps it odd
	// until late's operation has joined its batch.
	within(t, 5*time.Second, "late joiner", func() {
		for f.seq.Load()&1 == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		late.Execute(Op{A: 1})
		<-done
	})
	if len(c.batches) != 1 || c.batches[0] != 2 {
		t.Fatalf("batches %v, want one batch of 2", c.batches)
	}
	if got := c.w.v.Load(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}
