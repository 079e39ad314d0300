package witness

import (
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/engines"
	"hcf/internal/htm"
	"hcf/internal/memsim"
	"hcf/internal/seq/hashtable"
	"hcf/internal/seq/skiplist"
	"hcf/internal/seq/stack"
)

// --- models ---

// counterModel replays incOp applications.
type counterModel struct{ v uint64 }

func (m *counterModel) Apply(op engine.Op) uint64 {
	m.v++
	return m.v - 1
}

// pqModel replays priority-queue operations with a sorted multiset.
type pqModel struct{ keys []uint64 }

func (m *pqModel) Apply(op engine.Op) uint64 {
	switch o := op.(type) {
	case skiplist.InsertOp:
		i := sort.Search(len(m.keys), func(i int) bool { return m.keys[i] >= o.Key })
		m.keys = append(m.keys, 0)
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = o.Key
		return engine.PackBool(true)
	case skiplist.RemoveMinOp:
		if len(m.keys) == 0 {
			return engine.Pack(0, false)
		}
		k := m.keys[0]
		m.keys = m.keys[1:]
		return engine.Pack(k, true)
	}
	return 0
}

// stackModel replays stack operations.
type stackModel struct{ vals []uint64 }

func (m *stackModel) Apply(op engine.Op) uint64 {
	switch o := op.(type) {
	case stack.PushOp:
		m.vals = append(m.vals, o.Val)
		return engine.PackBool(true)
	case stack.PopOp:
		if len(m.vals) == 0 {
			return engine.Pack(0, false)
		}
		v := m.vals[len(m.vals)-1]
		m.vals = m.vals[:len(m.vals)-1]
		return engine.Pack(v, true)
	}
	return 0
}

// --- harness ---

type incOp struct{ addr memsim.Addr }

func (o incOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o incOp) Class() int { return 0 }

func combineIncs(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
	var addr memsim.Addr
	any := false
	for i, op := range ops {
		if !done[i] {
			addr = op.(incOp).addr
			any = true
		}
	}
	if !any {
		return
	}
	v := ctx.Load(addr)
	for i := range ops {
		if !done[i] {
			res[i] = v
			v++
			done[i] = true
		}
	}
	ctx.Store(addr, v)
}

// witnessedEngines builds all six engines with witnessing enabled.
func witnessedEngines(t *testing.T, env memsim.Env, policies []core.Policy,
	combine engine.CombineFunc, rec *Recorder) map[string]engine.Engine {
	t.Helper()
	hcf, err := core.New(env, core.Config{Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	opts := func() engines.Options { return engines.Options{Combine: combine} }
	all := map[string]engine.Engine{
		"Lock":   engines.NewLock(env, opts()),
		"TLE":    engines.NewTLE(env, opts()),
		"FC":     engines.NewFC(env, opts()),
		"SCM":    engines.NewSCM(env, opts()),
		"TLE+FC": engines.NewTLEFC(env, opts()),
		"HCF":    hcf,
	}
	for name, e := range all {
		we, ok := e.(engine.WitnessedEngine)
		if !ok {
			t.Fatalf("engine %s does not support witnessing", name)
		}
		we.SetWitness(rec.Func())
	}
	return all
}

// counterPolicies is the standard counter-workload HCF configuration.
func counterPolicies() []core.Policy {
	return []core.Policy{{
		TryPrivateTrials:   2,
		TryVisibleTrials:   3,
		TryCombiningTrials: 5,
		RunMulti:           combineIncs,
	}}
}

func TestCounterLinearizableAllEngines(t *testing.T) {
	const threads, perThread = 8, 50
	for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			rec := &Recorder{}
			eng := witnessedEngines(t, env, counterPolicies(), combineIncs, rec)[name]
			counter := env.Alloc(1)
			env.Run(func(th *memsim.Thread) {
				for i := 0; i < perThread; i++ {
					eng.Execute(th, incOp{addr: counter})
				}
			})
			if err := Check(rec, &counterModel{}, threads*perThread, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// removeMinsLast mirrors skiplist.CombineMixed: Inserts at their scan
// positions, the combined RemoveMins afterwards.
func removeMinsLast(op engine.Op) int {
	if _, ok := op.(skiplist.RemoveMinOp); ok {
		return 1
	}
	return 0
}

func TestHashTableLinearizableAllEngines(t *testing.T) {
	const threads, perThread = 8, 60
	for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			tbl := hashtable.New(env.Boot(), 64)
			rec := &Recorder{}
			eng := witnessedEngines(t, env, hashtable.Policies(), hashtable.CombineMixed, rec)[name]
			env.Run(func(th *memsim.Thread) {
				rng := rand.New(rand.NewPCG(uint64(th.ID()), 5))
				for i := 0; i < perThread; i++ {
					key := rng.Uint64N(100)
					switch rng.IntN(3) {
					case 0:
						eng.Execute(th, hashtable.InsertOp{T: tbl, Key: key, Val: key * 3})
					case 1:
						eng.Execute(th, hashtable.FindOp{T: tbl, Key: key})
					default:
						eng.Execute(th, hashtable.RemoveOp{T: tbl, Key: key})
					}
				}
			})
			if err := Check(rec, hashtable.Model{}, threads*perThread, hashtable.Rank); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPriorityQueueLinearizableAllEngines(t *testing.T) {
	const threads, perThread = 8, 40
	for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			q := skiplist.New(env.Boot())
			rec := &Recorder{}
			eng := witnessedEngines(t, env, skiplist.Policies(), skiplist.CombineMixed, rec)[name]
			env.Run(func(th *memsim.Thread) {
				rng := rand.New(rand.NewPCG(uint64(th.ID()), 6))
				for i := 0; i < perThread; i++ {
					if rng.IntN(2) == 0 {
						eng.Execute(th, skiplist.InsertOp{
							Q: q, Key: rng.Uint64N(500), Level: skiplist.RandomLevel(rng),
						})
					} else {
						eng.Execute(th, skiplist.RemoveMinOp{Q: q})
					}
				}
			})
			if err := Check(rec, &pqModel{}, threads*perThread, removeMinsLast); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStackLinearizableAllEngines(t *testing.T) {
	const threads, perThread = 8, 40
	for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			s := stack.New(env.Boot())
			rec := &Recorder{}
			eng := witnessedEngines(t, env, stack.Policies(), stack.Combine, rec)[name]
			env.Run(func(th *memsim.Thread) {
				rng := rand.New(rand.NewPCG(uint64(th.ID()), 7))
				for i := 0; i < perThread; i++ {
					if rng.IntN(2) == 0 {
						eng.Execute(th, stack.PushOp{S: s, Val: rng.Uint64() >> 1})
					} else {
						eng.Execute(th, stack.PopOp{S: s})
					}
				}
			})
			if err := Check(rec, &stackModel{}, threads*perThread, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLinearizableUnderInjectedAborts(t *testing.T) {
	const threads, perThread = 6, 40
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	rec := &Recorder{}
	fw, err := core.New(env, core.Config{
		Policies: []core.Policy{{
			TryPrivateTrials:   2,
			TryVisibleTrials:   2,
			TryCombiningTrials: 3,
			RunMulti:           combineIncs,
		}},
		HTM: htm.Config{InjectAbortEvery: 4, NoisePPMPerLine: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	fw.SetWitness(rec.Func())
	counter := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < perThread; i++ {
			fw.Execute(th, incOp{addr: counter})
		}
	})
	if err := Check(rec, &counterModel{}, threads*perThread, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsDivergence(t *testing.T) {
	rec := &Recorder{}
	fn := rec.Func()
	fn(2, 0, incOp{}, 0)
	fn(4, 0, incOp{}, 99) // wrong: replay expects 1
	if err := Check(rec, &counterModel{}, 2, nil); err == nil {
		t.Fatal("divergent history accepted")
	}
}

func TestCheckDetectsMissingApplications(t *testing.T) {
	rec := &Recorder{}
	rec.Func()(2, 0, incOp{}, 0)
	if err := Check(rec, &counterModel{}, 2, nil); err == nil {
		t.Fatal("missing application accepted")
	}
}

// fakeFlight is a FlightSource returning a fixed dump.
type fakeFlight struct{ dump string }

func (f fakeFlight) FlightDump(n int) string { return f.dump }

func TestCheckDumpAttachesFlightRecorder(t *testing.T) {
	rec := &Recorder{}
	fn := rec.Func()
	fn(2, 0, incOp{}, 0)
	fn(4, 0, incOp{}, 99) // wrong: replay expects 1
	fr := fakeFlight{dump: "t0 @5 done\n"}
	err := CheckDump(rec, &counterModel{}, 2, nil, fr, 10)
	if err == nil {
		t.Fatal("divergent history accepted")
	}
	if !strings.Contains(err.Error(), "flight recorder") ||
		!strings.Contains(err.Error(), "t0 @5 done") {
		t.Fatalf("error lacks the flight dump: %v", err)
	}

	// A passing check attaches nothing; a nil source degrades to Check.
	good := &Recorder{}
	good.Func()(2, 0, incOp{}, 0)
	if err := CheckDump(good, &counterModel{}, 1, nil, fr, 10); err != nil {
		t.Fatalf("passing check returned %v", err)
	}
	if err := CheckDump(rec, &counterModel{}, 2, nil, nil, 10); err == nil {
		t.Fatal("nil source hid the violation")
	} else if strings.Contains(err.Error(), "flight recorder") {
		t.Fatalf("nil source produced a dump: %v", err)
	}
}

func TestSerializationOrdering(t *testing.T) {
	rec := &Recorder{}
	fn := rec.Func()
	fn(4, 1, incOp{}, 11)
	fn(4, 0, incOp{}, 10)
	fn(2, 0, incOp{}, 9)
	got := rec.Serialization(nil)
	if got[0].Result != 9 || got[1].Result != 10 || got[2].Result != 11 {
		t.Fatalf("bad order: %+v", got)
	}
	if rec.Len() != 3 {
		t.Fatalf("Len = %d", rec.Len())
	}
}
