package core

import (
	"sort"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/htm"
	"hcf/internal/locks"
	"hcf/internal/memsim"
)

// incOp increments a shared counter and returns the value it observed.
// The stream of returned pre-values across all threads must be a permutation
// of 0..N-1 — a strong exactly-once and atomicity witness.
type incOp struct {
	addr  memsim.Addr
	class int
}

func (o incOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o incOp) Class() int { return o.class }

// combineIncs is a RunMulti that batches k increments into one load and one
// store, giving each operation its distinct pre-value.
func combineIncs(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	var addr memsim.Addr
	count := uint64(0)
	for i, op := range ops {
		if done[i] {
			continue
		}
		o := op.(incOp)
		addr = o.addr
		_ = o
		count++
	}
	if count == 0 {
		return
	}
	v := ctx.Load(addr)
	for i := range ops {
		if done[i] {
			continue
		}
		res[i] = v
		v++
		done[i] = true
	}
	ctx.Store(addr, v)
}

// runIncWorkload executes perThread increments per thread through fw and
// checks the permutation witness and the final counter value.
func runIncWorkload(t *testing.T, env memsim.Env, fw *Framework, counter memsim.Addr, perThread int, class int) {
	t.Helper()
	n := env.NumThreads()
	results := make([][]uint64, n)
	env.Run(func(th *memsim.Thread) {
		mine := make([]uint64, 0, perThread)
		for i := 0; i < perThread; i++ {
			mine = append(mine, fw.Execute(th, incOp{addr: counter, class: class}))
		}
		results[th.ID()] = mine
	})
	total := n * perThread
	if got := env.Boot().Load(counter); got != uint64(total) {
		t.Fatalf("counter = %d, want %d (lost or duplicated operations)", got, total)
	}
	var all []uint64
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != uint64(i) {
			t.Fatalf("result stream is not a permutation: position %d has %d", i, v)
		}
	}
	m := fw.Metrics()
	if m.Ops != uint64(total) {
		t.Fatalf("metrics.Ops = %d, want %d", m.Ops, total)
	}
	var phases uint64
	for _, p := range m.PhaseCompleted {
		phases += p
	}
	if phases != uint64(total) {
		t.Fatalf("phase counts sum to %d, want %d", phases, total)
	}
}

func defaultPolicy() Policy {
	return Policy{
		Name:               "inc",
		TryPrivateTrials:   2,
		TryVisibleTrials:   3,
		TryCombiningTrials: 5,
		RunMulti:           combineIncs,
	}
}

func newFW(t *testing.T, env memsim.Env, cfg Config) *Framework {
	t.Helper()
	fw, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestExactlyOnceDefaultConfig(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 8})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 50, 0)
}

func TestExactlyOnceSpecializedVariant(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 8})
	fw := newFW(t, env, Config{
		Policies:          []Policy{defaultPolicy()},
		HoldSelectionLock: true,
	})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 50, 0)
}

func TestExactlyOnceCombineOnlyPolicy(t *testing.T) {
	// The priority-queue RemoveMin configuration from §2.1: skip HTM in the
	// first two phases and go straight to combining after announcing.
	env := memsim.NewDet(memsim.DetConfig{Threads: 8})
	pol := defaultPolicy()
	pol.TryPrivateTrials = 0
	pol.TryVisibleTrials = 0
	fw := newFW(t, env, Config{Policies: []Policy{pol}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 40, 0)
	if fw.Metrics().CombinerSessions == 0 {
		t.Fatal("combine-only policy never combined")
	}
}

func TestExactlyOnceTLEConfiguration(t *testing.T) {
	// §2.4: TLE is HCF with zero visible/combining trials and a combiner
	// that helps nobody.
	env := memsim.NewDet(memsim.DetConfig{Threads: 8})
	fw := newFW(t, env, Config{Policies: []Policy{{
		Name:             "tle",
		TryPrivateTrials: 10,
		ShouldHelp:       engine.HelpNone,
	}}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 50, 0)
	m := fw.Metrics()
	if m.CombinedOps > m.CombinerSessions {
		t.Fatalf("TLE configuration combined foreign ops: %d ops in %d sessions",
			m.CombinedOps, m.CombinerSessions)
	}
}

func TestExactlyOnceFCConfiguration(t *testing.T) {
	// §2.4: FC is HCF with all speculation budgets at zero and a combiner
	// that helps everybody.
	env := memsim.NewDet(memsim.DetConfig{Threads: 8})
	fw := newFW(t, env, Config{Policies: []Policy{{
		Name:       "fc",
		ShouldHelp: engine.HelpAll,
		RunMulti:   combineIncs,
	}}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 50, 0)
	m := fw.Metrics()
	if m.HTM.Started != 0 {
		t.Fatalf("FC configuration started %d transactions", m.HTM.Started)
	}
	if m.PhaseCompleted[PhaseTryPrivate] != 0 || m.PhaseCompleted[PhaseTryVisible] != 0 {
		t.Fatal("FC configuration completed operations speculatively")
	}
}

func TestExactlyOnceUnderAbortInjection(t *testing.T) {
	// Force frequent transaction aborts; everything must still be applied
	// exactly once through the combining/lock fallbacks.
	env := memsim.NewDet(memsim.DetConfig{Threads: 6})
	fw := newFW(t, env, Config{
		Policies: []Policy{defaultPolicy()},
		HTM:      htm.Config{InjectAbortEvery: 3},
	})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 40, 0)
	if fw.Metrics().HTM.Aborts[htm.ReasonInjected] == 0 {
		t.Fatal("injection did not fire")
	}
}

func TestExactlyOnceRealBackend(t *testing.T) {
	env := memsim.NewReal(memsim.RealConfig{Threads: 6})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 100, 0)
}

func TestExactlyOnceTicketLocks(t *testing.T) {
	// §2.3: with starvation-free locks the whole construction is
	// starvation free. Exercise the ticket-lock configuration.
	env := memsim.NewDet(memsim.DetConfig{Threads: 8})
	fw := newFW(t, env, Config{
		Policies:         []Policy{defaultPolicy()},
		Lock:             locks.NewTicket(env),
		NewSelectionLock: func(e memsim.Env) locks.Lock { return locks.NewTicket(e) },
	})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 40, 0)
}

func TestTwoPublicationArrays(t *testing.T) {
	// Two operation classes on separate arrays and separate counters; each
	// class combines only with itself (§2.4's multi-array mechanism).
	env := memsim.NewDet(memsim.DetConfig{Threads: 8})
	polA := defaultPolicy()
	polA.Name, polA.PubArray = "a", 0
	polB := defaultPolicy()
	polB.Name, polB.PubArray = "b", 1
	fw := newFW(t, env, Config{Policies: []Policy{polA, polB}})
	ca := env.Alloc(memsim.WordsPerLine)
	cb := env.Alloc(memsim.WordsPerLine)
	const perThread = 40
	n := env.NumThreads()
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < perThread; i++ {
			if (th.ID()+i)%2 == 0 {
				fw.Execute(th, incOp{addr: ca, class: 0})
			} else {
				fw.Execute(th, incOp{addr: cb, class: 1})
			}
		}
	})
	boot := env.Boot()
	if got := boot.Load(ca) + boot.Load(cb); got != uint64(n*perThread) {
		t.Fatalf("total = %d, want %d", got, n*perThread)
	}
	bd := fw.PhaseBreakdown()
	if len(bd) != 2 {
		t.Fatalf("phase breakdown has %d classes, want 2", len(bd))
	}
	var sum uint64
	for _, cl := range bd {
		for _, p := range cl {
			sum += p
		}
	}
	if sum != uint64(n*perThread) {
		t.Fatalf("per-class phases sum to %d, want %d", sum, n*perThread)
	}
}

func TestShouldHelpFiltering(t *testing.T) {
	// A combiner that refuses to help still completes everything (the
	// refused ops complete via their own phases), and never applies more
	// than its own op per session.
	env := memsim.NewDet(memsim.DetConfig{Threads: 6})
	pol := defaultPolicy()
	pol.ShouldHelp = engine.HelpNone
	fw := newFW(t, env, Config{Policies: []Policy{pol}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 40, 0)
	m := fw.Metrics()
	if m.CombinerSessions > 0 && m.CombinedOps != m.CombinerSessions {
		t.Fatalf("HelpNone combined %d ops in %d sessions", m.CombinedOps, m.CombinerSessions)
	}
}

func TestCombiningDegreeReported(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 12})
	pol := defaultPolicy()
	pol.TryPrivateTrials = 0
	pol.TryVisibleTrials = 0 // everyone announces and combines
	fw := newFW(t, env, Config{Policies: []Policy{pol}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 30, 0)
	m := fw.Metrics()
	if m.CombiningDegree() <= 1.0 {
		t.Fatalf("combining degree = %.2f, expected > 1 under contention", m.CombiningDegree())
	}
}

func TestDeterministicRuns(t *testing.T) {
	trace := func() (engine.Metrics, uint64) {
		env := memsim.NewDet(memsim.DetConfig{Threads: 6})
		fw, err := New(env, Config{Policies: []Policy{defaultPolicy()}})
		if err != nil {
			t.Fatal(err)
		}
		counter := env.Alloc(1)
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 30; i++ {
				fw.Execute(th, incOp{addr: counter})
			}
		})
		return fw.Metrics(), env.Boot().Load(counter)
	}
	m1, v1 := trace()
	m2, v2 := trace()
	if v1 != v2 {
		t.Fatalf("final values differ: %d vs %d", v1, v2)
	}
	if m1.Ops != m2.Ops || m1.HTM != m2.HTM || m1.PhaseCompleted != m2.PhaseCompleted {
		t.Fatalf("metrics differ:\n%+v\n%+v", m1, m2)
	}
}

func TestResetMetrics(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	counter := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		fw.Execute(th, incOp{addr: counter})
	})
	fw.ResetMetrics()
	m := fw.Metrics()
	if m.Ops != 0 || m.HTM.Started != 0 || m.CombinerSessions != 0 {
		t.Fatalf("metrics not reset: %+v", m)
	}
}

func TestSetTrialsClampsNegatives(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	fw.SetTrials(0, -3, -1, -2)
	p, v, c := fw.Trials(0)
	if p != 0 || v != 0 || c != 0 {
		t.Fatalf("negatives not clamped: %d %d %d", p, v, c)
	}
}

func TestZeroBudgetClassStillCompletes(t *testing.T) {
	// A tuner can drive every speculative budget to zero; operations must
	// still complete via the combining phases.
	env := memsim.NewDet(memsim.DetConfig{Threads: 4})
	fw := newFW(t, env, Config{Policies: []Policy{
		{Name: "hot", TryPrivateTrials: 4, TryVisibleTrials: 3, TryCombiningTrials: 2},
	}})
	fw.SetTrials(0, 0, 0, 0)
	counter := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 30; i++ {
			fw.Execute(th, incOp{addr: counter})
		}
	})
	if got := env.Boot().Load(counter); got != 120 {
		t.Fatalf("counter = %d, want 120", got)
	}
	if m := fw.Metrics(); m.PhaseCompleted[PhaseTryPrivate] != 0 {
		t.Fatal("zero private budget still completed privately")
	}
}

func TestConfigValidation(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	if _, err := New(env, Config{}); err == nil {
		t.Error("empty policies accepted")
	}
	if _, err := New(env, Config{Policies: []Policy{{PubArray: -1}}}); err == nil {
		t.Error("negative PubArray accepted")
	}
	if _, err := New(env, Config{Policies: []Policy{{TryPrivateTrials: -1}}}); err == nil {
		t.Error("negative trials accepted")
	}
}

func TestNameDefaultsAndOverride(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	if fw.Name() != "HCF" {
		t.Errorf("default name = %q", fw.Name())
	}
	fw2 := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}, Name: "HCF-x"})
	if fw2.Name() != "HCF-x" {
		t.Errorf("override name = %q", fw2.Name())
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseTryPrivate:       "TryPrivate",
		PhaseTryVisible:       "TryVisible",
		PhaseTryCombining:     "TryCombining",
		PhaseCombineUnderLock: "CombineUnderLock",
		Phase(9):              "Phase(9)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestSingleThreadFastPath(t *testing.T) {
	// With no contention everything should complete in TryPrivate.
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	counter := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 100; i++ {
			fw.Execute(th, incOp{addr: counter})
		}
	})
	m := fw.Metrics()
	if m.PhaseCompleted[PhaseTryPrivate] != 100 {
		t.Fatalf("phase breakdown %v, want all TryPrivate", m.PhaseCompleted)
	}
	if m.LockAcquisitions != 0 {
		t.Fatalf("uncontended run acquired the lock %d times", m.LockAcquisitions)
	}
}

// TestHighContentionShiftsPhases checks the Figure 3 effect: under high
// contention, completions move out of TryPrivate into the combining phases.
func TestHighContentionShiftsPhases(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 16})
	pol := defaultPolicy()
	pol.TryPrivateTrials = 1
	pol.TryVisibleTrials = 1
	fw := newFW(t, env, Config{Policies: []Policy{pol}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 30, 0)
	m := fw.Metrics()
	combined := m.PhaseCompleted[PhaseTryCombining] + m.PhaseCompleted[PhaseCombineUnderLock]
	if combined == 0 {
		t.Fatalf("no operations completed in combining phases under contention: %v",
			m.PhaseCompleted)
	}
}

func TestBootThreadCanExecute(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	counter := env.Alloc(1)
	if got := fw.Execute(env.Boot(), incOp{addr: counter}); got != 0 {
		t.Fatalf("boot execute returned %d", got)
	}
	if got := env.Boot().Load(counter); got != 1 {
		t.Fatalf("counter = %d", got)
	}
}
