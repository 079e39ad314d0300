package adaptive

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/trace"
)

// hotOp increments a single shared counter — speculation almost always
// conflicts under many threads.
type hotOp struct{ addr memsim.Addr }

func (o hotOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o hotOp) Class() int { return 0 }

// coldOp touches a thread-private cell — speculation always succeeds.
type coldOp struct{ addr memsim.Addr }

func (o coldOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o coldOp) Class() int { return 1 }

var _ engine.Op = hotOp{}
var _ engine.Op = coldOp{}

func twoClassFramework(t *testing.T, env memsim.Env) *core.Framework {
	t.Helper()
	fw, err := core.New(env, core.Config{Policies: []core.Policy{
		{Name: "hot", PubArray: 0, TryPrivateTrials: 4, TryVisibleTrials: 3, TryCombiningTrials: 2},
		{Name: "cold", PubArray: 1, TryPrivateTrials: 4, TryVisibleTrials: 3, TryCombiningTrials: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// TestAdaptationShiftsBudgetsByConflictProfile runs a budget-only tuner
// (phase evidence alone) over one conflicting and one conflict-free class:
// the conflicting class's speculation must shrink toward combining while
// the conflict-free class keeps its private budget.
func TestAdaptationShiftsBudgetsByConflictProfile(t *testing.T) {
	const threads = 12
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	tun := NewTuner(fw, nil, nil, TunerConfig{MinOpsPerEpoch: 32, LowPrivate: 0.8, HighPrivate: 0.97})
	hot := env.Alloc(1)
	cold := make([]memsim.Addr, threads)
	for i := range cold {
		cold[i] = env.Alloc(memsim.WordsPerLine)
	}
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 400; i++ {
			fw.Execute(th, hotOp{addr: hot})
			fw.Execute(th, coldOp{addr: cold[th.ID()]})
			if th.ID() == 0 && i%50 == 49 {
				tun.Step(th.Now())
			}
		}
	})
	hotP, _, hotC := fw.Trials(0)
	coldP, _, _ := fw.Trials(1)
	if hotP >= 4 {
		t.Errorf("hot class private budget did not shrink: %d\n%s", hotP, tun.Journal().Text())
	}
	if hotC <= 2 {
		t.Errorf("hot class combining budget did not grow: %d\n%s", hotC, tun.Journal().Text())
	}
	if coldP < 4 {
		t.Errorf("cold class private budget shrank: %d", coldP)
	}
	if snap := tun.Snapshot(); len(snap.Classes) != 2 {
		t.Errorf("bad snapshot: %+v", snap)
	}
}

// TestAdaptationPreservesExactlyOnce changes budgets mid-run with a
// budget-only tuner; the permutation witness must still hold.
func TestAdaptationPreservesExactlyOnce(t *testing.T) {
	const threads, perThread = 8, 120
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	tun := NewTuner(fw, nil, nil, TunerConfig{MinOpsPerEpoch: 16, LowPrivate: 0.85, Hysteresis: 1, Cooldown: 1})
	counter := env.Alloc(1)
	results := make([][]uint64, threads)
	env.Run(func(th *memsim.Thread) {
		mine := make([]uint64, 0, perThread)
		for i := 0; i < perThread; i++ {
			mine = append(mine, fw.Execute(th, hotOp{addr: counter}))
			if th.ID() == 1 && i%20 == 19 {
				tun.Step(th.Now())
			}
		}
		results[th.ID()] = mine
	})
	if tun.Journal().Len() == 0 {
		t.Fatal("budgets never changed; test exercised nothing")
	}
	var all []uint64
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != uint64(i) {
			t.Fatalf("permutation broken at %d: %d", i, v)
		}
	}
}

// TestBudgetsNeverGoNegativeOrExplode steps a budget-only tuner after
// every short round of conflicting work: budgets stay non-negative and
// within the configured caps.
func TestBudgetsNeverGoNegativeOrExplode(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 4})
	fw := twoClassFramework(t, env)
	cfg := TunerConfig{MinOpsPerEpoch: 1, MaxPrivate: 5, MaxVisible: 5, MaxCombining: 5, Hysteresis: 1, Cooldown: 1}
	tun := NewTuner(fw, nil, nil, cfg)
	hot := env.Alloc(1)
	for round := 0; round < 30; round++ {
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 20; i++ {
				fw.Execute(th, hotOp{addr: hot})
			}
		})
		tun.Step(env.Now(0))
		for class := 0; class < fw.NumClasses(); class++ {
			p, v, c := fw.Trials(class)
			if p < 0 || v < 0 || c < 0 {
				t.Fatalf("negative budget: %d %d %d", p, v, c)
			}
			if p > cfg.MaxPrivate || v > cfg.MaxVisible || c > cfg.MaxCombining {
				t.Fatalf("budget exceeded cap: %d %d %d", p, v, c)
			}
		}
	}
	if tun.Journal().Len() == 0 {
		t.Fatal("tuner never decided; test exercised nothing")
	}
}

// TestTunerGrowsAndPromotesConflictFree drives only conflict-free work: the
// tuner must grow the class's private budget to the cap and then dismantle
// its combining budget, journaling each step with its evidence.
func TestTunerGrowsAndPromotesConflictFree(t *testing.T) {
	const threads = 8
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	tun := NewTuner(fw, nil, nil, TunerConfig{
		MinOpsPerEpoch: 16, MaxPrivate: 6, Hysteresis: 1, Cooldown: 1,
	})
	cold := make([]memsim.Addr, threads)
	for i := range cold {
		cold[i] = env.Alloc(memsim.WordsPerLine)
	}
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 600; i++ {
			fw.Execute(th, coldOp{addr: cold[th.ID()]})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	p, _, c := fw.Trials(1)
	if p != 6 {
		t.Errorf("cold private budget = %d, want cap 6", p)
	}
	if c != 0 {
		t.Errorf("cold combining budget = %d, want 0 after promotion", c)
	}
	var grows, promotes int
	for _, d := range tun.Journal().Entries() {
		if d.Class != 1 {
			t.Errorf("decision on idle class: %+v", d)
		}
		switch d.Rule {
		case RuleGrowPrivate:
			grows++
		case RulePromote:
			promotes++
		}
		if d.Evidence.PrivFrac < 0.9 {
			t.Errorf("%s fired on priv_frac %.2f", d.Rule, d.Evidence.PrivFrac)
		}
	}
	if grows != 2 || promotes != 2 {
		t.Errorf("journal has %d grows and %d promotes, want 2 and 2\n%s",
			grows, promotes, tun.Journal().Text())
	}
}

// TestTunerSkipsPrivateOnConflictEvidence drives always-conflicting work
// with trace attribution attached: the tuner must cut TryPrivate to zero
// and record the hot line (with its dominant writer) as evidence.
func TestTunerSkipsPrivateOnConflictEvidence(t *testing.T) {
	const threads = 12
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	col := &trace.Collector{Limit: 1}
	fw.SetTracer(col)
	tun := NewTuner(fw, nil, col, TunerConfig{
		MinOpsPerEpoch: 16, LowPrivate: 0.85, SkipConflict: 0.5,
		Hysteresis: 1, Cooldown: 1, ProbeEpochs: 1 << 30, // stay parked once skipped
	})
	hot := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 400; i++ {
			fw.Execute(th, hotOp{addr: hot})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	p, _, _ := fw.Trials(0)
	if p != 0 {
		t.Fatalf("hot private budget = %d, want 0 after skip\n%s", p, tun.Journal().Text())
	}
	var skip *Decision
	for _, d := range tun.Journal().Entries() {
		if d.Rule == RuleSkipPrivate {
			skip = &d
			break
		}
	}
	if skip == nil {
		t.Fatalf("no skip-private decision\n%s", tun.Journal().Text())
	}
	if skip.New.Private != 0 {
		t.Errorf("skip-private wrote private=%d", skip.New.Private)
	}
	if skip.Evidence.ConflictFrac < 0.5 {
		t.Errorf("skip fired on conflict_frac %.2f", skip.Evidence.ConflictFrac)
	}
	if len(skip.Evidence.HotLines) == 0 {
		t.Error("skip-private decision carries no hot-line attribution")
	} else if hl := skip.Evidence.HotLines[0]; hl.Aborts == 0 || hl.TopWriter < 0 {
		t.Errorf("hot-line evidence incomplete: %+v", hl)
	}
}

// TestTunerProbeRevivesParkedClass parks a class (zero private trials) on
// conflict-free work with no trace collector: the scheduled probe alone
// must revive speculation, and the following epochs must grow it.
func TestTunerProbeRevivesParkedClass(t *testing.T) {
	const threads = 4
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	fw.SetTrials(0, 0, 0, 4)
	tun := NewTuner(fw, nil, nil, TunerConfig{
		MinOpsPerEpoch: 8, ProbeEpochs: 2, Hysteresis: 1, Cooldown: 1,
	})
	cold := make([]memsim.Addr, threads)
	for i := range cold {
		cold[i] = env.Alloc(memsim.WordsPerLine)
	}
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 400; i++ {
			fw.Execute(th, hotOp{addr: cold[th.ID()]})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	ds := tun.Journal().Entries()
	if len(ds) == 0 || ds[0].Rule != RuleRevivePrivate {
		t.Fatalf("first decision is not revive-private\n%s", tun.Journal().Text())
	}
	if ds[0].Old.Private != 0 || ds[0].New.Private != 2 {
		t.Errorf("revive wrote %d -> %d, want 0 -> floor 2", ds[0].Old.Private, ds[0].New.Private)
	}
	p, _, _ := fw.Trials(0)
	if p < 2 {
		t.Errorf("private budget = %d after probe, want >= floor", p)
	}
	var grows int
	for _, d := range ds[1:] {
		if d.Rule == RuleGrowPrivate {
			grows++
		}
	}
	if grows == 0 {
		t.Errorf("probe evidence never converted into growth\n%s", tun.Journal().Text())
	}
}

// TestTunerJournalDeterministic pins the replay contract: the same seed on
// the deterministic backend yields a byte-identical journal JSON.
func TestTunerJournalDeterministic(t *testing.T) {
	run := func() []byte {
		const threads = 8
		env := memsim.NewDet(memsim.DetConfig{Threads: threads})
		fw := twoClassFramework(t, env)
		col := &trace.Collector{Limit: 1}
		fw.SetTracer(col)
		tun := NewTuner(fw, nil, col, TunerConfig{MinOpsPerEpoch: 16, Hysteresis: 1, Cooldown: 1})
		hot := env.Alloc(1)
		cold := make([]memsim.Addr, threads)
		for i := range cold {
			cold[i] = env.Alloc(memsim.WordsPerLine)
		}
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 300; i++ {
				fw.Execute(th, hotOp{addr: hot})
				fw.Execute(th, coldOp{addr: cold[th.ID()]})
				if th.ID() == 0 && i%10 == 9 {
					tun.Step(th.Now())
				}
			}
		})
		out, err := tun.Journal().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if tun.Journal().Len() == 0 {
			t.Fatal("journal empty; test exercised nothing")
		}
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("journal JSON differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	var ds []Decision
	if err := json.Unmarshal(a, &ds); err != nil {
		t.Fatalf("journal JSON does not round-trip: %v", err)
	}
	for i, d := range ds {
		if d.Seq != i {
			t.Errorf("decision %d has seq %d", i, d.Seq)
		}
	}
}

// TestTunerIdleIsInvisible runs the same workload with and without a tuner
// whose epoch gate never passes: budgets, journal, results and per-thread
// virtual clocks must all be indistinguishable from the tunerless run.
func TestTunerIdleIsInvisible(t *testing.T) {
	const threads = 6
	run := func(withTuner bool) (uint64, []int64) {
		env := memsim.NewDet(memsim.DetConfig{Threads: threads})
		fw := twoClassFramework(t, env)
		var tun *Tuner
		if withTuner {
			tun = NewTuner(fw, nil, nil, TunerConfig{MinOpsPerEpoch: 1 << 60})
		}
		hot := env.Alloc(1)
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 200; i++ {
				fw.Execute(th, hotOp{addr: hot})
				if tun != nil && th.ID() == 0 {
					tun.Step(th.Now())
				}
			}
		})
		if withTuner {
			if tun.Journal().Len() != 0 {
				t.Fatalf("idle tuner recorded decisions:\n%s", tun.Journal().Text())
			}
			p, v, c := fw.Trials(0)
			if p != 4 || v != 3 || c != 2 {
				t.Fatalf("idle tuner changed budgets: %d/%d/%d", p, v, c)
			}
		}
		clocks := make([]int64, threads)
		for i := range clocks {
			clocks[i] = env.Now(i)
		}
		return env.Boot().Load(hot), clocks
	}
	plainOps, plainClocks := run(false)
	tunedOps, tunedClocks := run(true)
	if plainOps != tunedOps {
		t.Fatalf("op counts differ: %d vs %d", plainOps, tunedOps)
	}
	for i := range plainClocks {
		if plainClocks[i] != tunedClocks[i] {
			t.Fatalf("thread %d clock perturbed by idle tuner: %d vs %d",
				i, plainClocks[i], tunedClocks[i])
		}
	}
}

// TestTunerConcurrentSetTrialsRespectsClamps stresses the apply-time
// read-modify-write under schedule exploration: a hostile thread keeps
// installing out-of-bounds budgets, and every budget the tuner writes back
// (i.e. every journaled decision) must respect its configured caps.
func TestTunerConcurrentSetTrialsRespectsClamps(t *testing.T) {
	const (
		threads      = 6
		maxPrivate   = 5
		maxCombining = 5
	)
	for seed := uint64(0); seed < 12; seed++ {
		env := memsim.NewDet(memsim.DetConfig{
			Threads: threads,
			Explore: memsim.ExploreConfig{Seed: seed, PreemptBudget: 32, JitterClass: 2},
		})
		fw := twoClassFramework(t, env)
		tun := NewTuner(fw, nil, nil, TunerConfig{
			MinOpsPerEpoch: 16, LowPrivate: 0.85,
			MaxPrivate: maxPrivate, MaxCombining: maxCombining,
			Hysteresis: 1, Cooldown: 1,
		})
		hot := env.Alloc(1)
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 300; i++ {
				fw.Execute(th, hotOp{addr: hot})
				switch {
				case th.ID() == 0 && i%25 == 24:
					tun.Step(th.Now())
				case th.ID() == 1 && i%40 == 10:
					fw.SetTrials(0, 0, 1, 50)
				}
			}
		})
		if tun.Journal().Len() == 0 {
			t.Fatalf("seed %d: tuner never decided; test exercised nothing", seed)
		}
		for _, d := range tun.Journal().Entries() {
			n := d.New
			if n.Private < 0 || n.Private > maxPrivate || n.Visible < 0 || n.Combining < 0 || n.Combining > maxCombining {
				t.Fatalf("seed %d: journaled write violates clamps: %+v", seed, d)
			}
		}
	}
}

// TestJournalRenders sanity-checks the two export formats on a synthetic
// journal.
func TestJournalRenders(t *testing.T) {
	j := &Journal{}
	j.Append(Decision{Seq: 0, Epoch: 3, Time: 700, Class: 0, Name: "insert", Rule: RuleGrowPrivate,
		Old: core.PolicyState{Private: 2, MaxBatch: 8}, New: core.PolicyState{Private: 3, MaxBatch: 8},
		Evidence: Evidence{Ops: 64, PrivFrac: 0.97, Peer: -1}})
	j.Append(Decision{Seq: 1, Epoch: 5, Time: 900, Class: 1, Name: "removemin", Rule: RuleDrift,
		Old: core.PolicyState{Combining: 4}, New: core.PolicyState{Combining: 4},
		Evidence: Evidence{Ops: 80, AbortRate: 0.7, EWMAAbortRate: 0.2, Attempts: 40, Peer: -1,
			HotLines: []trace.HotLine{{Line: 7, Aborts: 12, TopWriter: 3}}}})
	text := j.Text()
	for _, want := range []string{"grow-private", "drift-reset", "insert", "removemin", "hot line 7"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	out, err := j.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rule": "grow-private"`, `"ewma_abort_rate": 0.2`, `"hot_lines"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}
