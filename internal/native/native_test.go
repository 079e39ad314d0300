package native

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// paddedWord is a one-cell structure for framework tests: an atomic
// counter on its own cache line.
type paddedWord struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// counterPolicies builds a trivial one-word counter structure: class 0
// adds A and returns the new total, class 1 reads (read-only). The word
// is an atomic cell inside the closure environment.
func counterPolicies(tryPrivate int) ([]Policy, *paddedWord) {
	w := &paddedWord{}
	return []Policy{
		{Name: "Add", TryPrivate: tryPrivate,
			Run: func(op Op) uint64 { v := w.v.Load() + op.A; w.v.Store(v); return v }},
		{Name: "Read", ReadOnly: true, TryPrivate: tryPrivate,
			Run: func(op Op) uint64 { return w.v.Load() }},
	}, w
}

// TestPaddingInvariants pins the slot and per-handle metric layouts to
// whole cache-line multiples: a field added without adjusting the pad
// arrays fails here instead of silently re-introducing false sharing.
func TestPaddingInvariants(t *testing.T) {
	if s := unsafe.Sizeof(slot{}); s%(2*cacheLine) != 0 {
		t.Errorf("slot size %d is not a multiple of %d", s, 2*cacheLine)
	}
	if s := unsafe.Sizeof(threadMetrics{}); s%cacheLine != 0 {
		t.Errorf("threadMetrics size %d is not a multiple of %d", s, cacheLine)
	}
	if s := unsafe.Sizeof(nbudget{}); s%cacheLine != 0 {
		t.Errorf("nbudget size %d is not a multiple of %d", s, cacheLine)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Policies: []Policy{{Name: "x"}}}); err == nil {
		t.Fatal("policy without Run accepted")
	}
	if _, err := New(Config{Policies: []Policy{{TryPrivate: -1, Run: func(Op) uint64 { return 0 }}}}); err == nil {
		t.Fatal("negative TryPrivate accepted")
	}
}

// TestBudgetKnobs pins how New takes the policies' budgets: it keeps
// each TryPrivate, defaults MaxBatch 0 to 8 in its own copy, and leaves
// the caller's slice as it was.
func TestBudgetKnobs(t *testing.T) {
	pols, _ := counterPolicies(3)
	f, err := New(Config{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.policies[0].TryPrivate; got != 3 {
		t.Fatalf("TryPrivate = %d, want 3", got)
	}
	if got := f.policies[0].MaxBatch; got != 8 {
		t.Fatalf("default MaxBatch = %d, want 8", got)
	}
	if got := pols[0].MaxBatch; got != 0 {
		t.Fatalf("New wrote MaxBatch %d into the caller's policies", got)
	}
	if f.NumClasses() != 2 || f.ClassName(1) != "Read" {
		t.Fatalf("class metadata wrong: %d %q", f.NumClasses(), f.ClassName(1))
	}
}

func TestHandleExhaustionAndReuse(t *testing.T) {
	pols, _ := counterPolicies(1)
	f, err := New(Config{Policies: pols, MaxHandles: 2})
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := f.MustHandle(), f.MustHandle()
	if _, err := f.Handle(); err == nil {
		t.Fatal("third handle on MaxHandles=2 accepted")
	}
	h1.Release()
	h3 := f.MustHandle() // reuses h1's slot
	if h3.id != 0 {
		t.Fatalf("reused id = %d, want 0", h3.id)
	}
	h2.Release()
	h3.Release()
}

// TestSequentialCounter drives every completion path single-threaded:
// with budget the spec paths complete everything; with zero budget every
// operation goes announce -> self-combine.
func TestSequentialCounter(t *testing.T) {
	for _, budget := range []int{4, 0} {
		pols, _ := counterPolicies(budget)
		f, err := New(Config{Policies: pols})
		if err != nil {
			t.Fatal(err)
		}
		h := f.MustHandle()
		var want uint64
		for i := uint64(1); i <= 100; i++ {
			want += i
			if got := h.Execute(Op{Class: 0, A: i}); got != want {
				t.Fatalf("budget=%d: add %d -> %d, want %d", budget, i, got, want)
			}
			if got := h.Execute(Op{Class: 1}); got != want {
				t.Fatalf("budget=%d: read -> %d, want %d", budget, got, want)
			}
		}
		m := f.Metrics()
		if m.Ops != 200 {
			t.Fatalf("budget=%d: Ops = %d, want 200", budget, m.Ops)
		}
		if budget == 0 {
			if m.Announces != 200 || m.CombinerSessions != 200 {
				t.Fatalf("budget=0: announces=%d sessions=%d, want 200/200", m.Announces, m.CombinerSessions)
			}
			if m.SpecReadHits+m.SpecWriteHits != 0 {
				t.Fatalf("budget=0: unexpected spec hits")
			}
		} else {
			if m.SpecWriteHits != 100 || m.SpecReadHits != 100 {
				t.Fatalf("budget=%d: spec hits read=%d write=%d, want 100/100", budget, m.SpecReadHits, m.SpecWriteHits)
			}
		}
		h.Release()
	}
}

// TestConcurrentCounter checks exactly-once application under real
// concurrency on every configuration corner: spec-heavy, combine-only,
// and batch size 1.
func TestConcurrentCounter(t *testing.T) {
	const goroutines, opsPer = 8, 2000
	for _, cfg := range []struct {
		name     string
		budget   int
		maxBatch int
	}{
		{"spec", 6, 0},
		{"combine-only", 0, 0},
		{"batch1", 0, 1},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			pols, w := counterPolicies(cfg.budget)
			if cfg.maxBatch > 0 {
				for i := range pols {
					pols[i].MaxBatch = cfg.maxBatch
				}
			}
			f, err := New(Config{Policies: pols, MaxHandles: goroutines})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := f.MustHandle()
					defer h.Release()
					for i := 0; i < opsPer; i++ {
						if i%4 == 3 {
							h.Execute(Op{Class: 1})
						} else {
							h.Execute(Op{Class: 0, A: 1})
						}
					}
				}()
			}
			wg.Wait()
			const adds = goroutines * opsPer * 3 / 4
			if got := w.v.Load(); got != adds {
				t.Fatalf("counter = %d, want %d (adds applied not exactly once)", got, adds)
			}
			m := f.Metrics()
			if m.Ops != goroutines*opsPer {
				t.Fatalf("Ops = %d, want %d", m.Ops, goroutines*opsPer)
			}
		})
	}
}

// TestRunMultiCombining installs a combining RunMulti that sums a whole
// batch of adds in one pass and checks both the result distribution and
// that combining actually engaged.
func TestRunMultiCombining(t *testing.T) {
	w := &paddedWord{}
	apply := func(op Op) uint64 { v := w.v.Load() + op.A; w.v.Store(v); return v }
	pols := []Policy{{
		Name: "Add", TryPrivate: 0,
		Run: apply,
		RunMulti: func(ops []Op, res []uint64, done []bool) {
			// Order-preserving batch application: each op observes the
			// running total, exactly like one-by-one application.
			v := w.v.Load()
			for i, op := range ops {
				if done[i] {
					continue
				}
				v += op.A
				res[i] = v
				done[i] = true
			}
			w.v.Store(v)
		},
	}}
	f, err := New(Config{Policies: pols, MaxHandles: 8})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, opsPer = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := f.MustHandle()
			defer h.Release()
			for i := 0; i < opsPer; i++ {
				h.Execute(Op{Class: 0, A: 1})
			}
		}()
	}
	wg.Wait()
	if got := w.v.Load(); got != goroutines*opsPer {
		t.Fatalf("counter = %d, want %d", got, goroutines*opsPer)
	}
	m := f.Metrics()
	if m.CombinerSessions == 0 || m.CombinedOps < m.CombinerSessions {
		t.Fatalf("combining never engaged: %+v", m)
	}
}

// TestShouldHelpFiltering pins that a combiner leaves rejected
// operations announced (their owners self-combine later) and still
// completes everything.
func TestShouldHelpFiltering(t *testing.T) {
	w := &paddedWord{}
	apply := func(op Op) uint64 { v := w.v.Load() + op.A; w.v.Store(v); return v }
	never := func(mine, other Op) bool { return false }
	pols := []Policy{{Name: "Add", TryPrivate: 0, Run: apply, ShouldHelp: never}}
	f, err := New(Config{Policies: pols, MaxHandles: 4})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, opsPer = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := f.MustHandle()
			defer h.Release()
			for i := 0; i < opsPer; i++ {
				h.Execute(Op{Class: 0, A: 1})
			}
		}()
	}
	wg.Wait()
	if got := w.v.Load(); got != goroutines*opsPer {
		t.Fatalf("counter = %d, want %d", got, goroutines*opsPer)
	}
	m := f.Metrics()
	if m.CombinedOps != m.CombinerSessions {
		t.Fatalf("HelpNone combiner adopted peers: %d ops over %d sessions", m.CombinedOps, m.CombinerSessions)
	}
}

func TestPackHelpers(t *testing.T) {
	if v, ok := Unpack(Pack(123, true)); v != 123 || !ok {
		t.Fatal("Pack/Unpack round trip failed")
	}
	if UnpackBool(PackBool(false)) {
		t.Fatal("PackBool(false) decoded true")
	}
}
