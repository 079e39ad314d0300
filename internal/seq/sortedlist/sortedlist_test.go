package sortedlist

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/engines"
	"hcf/internal/memsim"
	"hcf/internal/seq/setops"
)

func newEnvList() (*memsim.DetEnv, *List) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	return env, New(env.Boot())
}

func TestEmptyList(t *testing.T) {
	env, l := newEnvList()
	boot := env.Boot()
	if l.Contains(boot, 1) || l.Remove(boot, 1) || l.Len(boot) != 0 {
		t.Fatal("empty list misbehaves")
	}
}

func TestInsertOrderMaintained(t *testing.T) {
	env, l := newEnvList()
	boot := env.Boot()
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		if !l.Insert(boot, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	keys := l.Keys(boot, nil)
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
	if msg := l.CheckInvariants(boot); msg != "" {
		t.Fatal(msg)
	}
}

func TestQuickRandomOpsMatchModel(t *testing.T) {
	env, l := newEnvList()
	boot := env.Boot()
	model := map[uint64]bool{}
	f := func(key uint8, action uint8) bool {
		k := uint64(key % 80)
		switch action % 3 {
		case 0:
			want := !model[k]
			model[k] = true
			if l.Insert(boot, k) != want {
				return false
			}
		case 1:
			if l.Contains(boot, k) != model[k] {
				return false
			}
		case 2:
			want := model[k]
			delete(model, k)
			if l.Remove(boot, k) != want {
				return false
			}
		}
		return l.CheckInvariants(boot) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestCombineOpsMatchesCanonicalSequential replays random batches in the
// combiner's canonical order against a second list and compares results
// and final contents.
func TestCombineOpsMatchesCanonicalSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 80; trial++ {
		envC, lc := newEnvList()
		envS, ls := newEnvList()
		bootC, bootS := envC.Boot(), envS.Boot()
		for i := 0; i < rng.IntN(12); i++ {
			k := rng.Uint64N(24)
			lc.Insert(bootC, k)
			ls.Insert(bootS, k)
		}
		n := 1 + rng.IntN(10)
		type item struct {
			key  uint64
			kind setops.Kind
			idx  int
		}
		items := make([]item, n)
		ops := make([]engine.Op, n)
		for i := 0; i < n; i++ {
			items[i] = item{key: rng.Uint64N(24), kind: setops.Kind(rng.IntN(setops.NumKinds)), idx: i}
			switch items[i].kind {
			case setops.Contains:
				ops[i] = ContainsOp{L: lc, K: items[i].key}
			case setops.Insert:
				ops[i] = InsertOp{L: lc, K: items[i].key}
			default:
				ops[i] = RemoveOp{L: lc, K: items[i].key}
			}
		}
		res := make([]uint64, n)
		done := make([]bool, n)
		CombineOps(bootC, ops, res, done)
		// Canonical order: (key, kind, idx).
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				x, y := items[a], items[b]
				if y.key < x.key || (y.key == x.key && (y.kind < x.kind ||
					(y.kind == x.kind && y.idx < x.idx))) {
					items[a], items[b] = items[b], items[a]
				}
			}
		}
		for _, it := range items {
			var want bool
			switch it.kind {
			case setops.Contains:
				want = ls.Contains(bootS, it.key)
			case setops.Insert:
				want = ls.Insert(bootS, it.key)
			default:
				want = ls.Remove(bootS, it.key)
			}
			if engine.UnpackBool(res[it.idx]) != want {
				t.Fatalf("trial %d: op idx %d (key %d kind %d) = %v, want %v",
					trial, it.idx, it.key, it.kind, engine.UnpackBool(res[it.idx]), want)
			}
		}
		kc := lc.Keys(bootC, nil)
		ks := ls.Keys(bootS, nil)
		if len(kc) != len(ks) {
			t.Fatalf("trial %d: contents differ: %v vs %v", trial, kc, ks)
		}
		for i := range kc {
			if kc[i] != ks[i] {
				t.Fatalf("trial %d: contents differ: %v vs %v", trial, kc, ks)
			}
		}
		if msg := lc.CheckInvariants(bootC); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
}

func TestConcurrentConformanceAllEngines(t *testing.T) {
	const threads, perThread = 8, 40
	for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		t.Run(name, func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			l := New(env.Boot())
			hcf, err := core.New(env, core.Config{Policies: Policies()})
			if err != nil {
				t.Fatal(err)
			}
			mk := func() engines.Options { return engines.Options{Combine: CombineOps} }
			engs := map[string]engine.Engine{
				"Lock":   engines.NewLock(env, mk()),
				"TLE":    engines.NewTLE(env, mk()),
				"FC":     engines.NewFC(env, mk()),
				"SCM":    engines.NewSCM(env, mk()),
				"TLE+FC": engines.NewTLEFC(env, mk()),
				"HCF":    hcf,
			}
			eng := engs[name]
			var inserted, removed [threads]int
			env.Run(func(th *memsim.Thread) {
				rng := rand.New(rand.NewPCG(uint64(th.ID()), 66))
				for i := 0; i < perThread; i++ {
					k := rng.Uint64N(48)
					switch rng.IntN(3) {
					case 0:
						if engine.UnpackBool(eng.Execute(th, InsertOp{L: l, K: k})) {
							inserted[th.ID()]++
						}
					case 1:
						eng.Execute(th, ContainsOp{L: l, K: k})
					default:
						if engine.UnpackBool(eng.Execute(th, RemoveOp{L: l, K: k})) {
							removed[th.ID()]++
						}
					}
				}
			})
			boot := env.Boot()
			if msg := l.CheckInvariants(boot); msg != "" {
				t.Fatal(msg)
			}
			ins, rem := 0, 0
			for i := 0; i < threads; i++ {
				ins += inserted[i]
				rem += removed[i]
			}
			if got := l.Len(boot); got != ins-rem {
				t.Fatalf("size = %d, want %d", got, ins-rem)
			}
		})
	}
}

// TestMergePassSinglyTraverses sanity-checks the single-pass property: a
// combined batch touching k ascending keys must not read more list nodes
// than one full traversal (plus constants), unlike k separate walks.
func TestMergePassSinglyTraverses(t *testing.T) {
	env, l := newEnvList()
	boot := env.Boot()
	const size = 200
	for k := uint64(0); k < size; k++ {
		l.Insert(boot, k*2)
	}
	ops := make([]engine.Op, 8)
	for i := range ops {
		ops[i] = InsertOp{L: l, K: uint64(i*40 + 1)} // spread across the list
	}
	res := make([]uint64, len(ops))
	done := make([]bool, len(ops))
	loadsBefore := boot.Stats().Loads
	CombineOps(boot, ops, res, done)
	loads := boot.Stats().Loads - loadsBefore
	// One traversal reads ~2 words per node (key + next); 8 separate walks
	// would read ~8x that for the early part. Allow generous slack.
	if loads > 3*size {
		t.Fatalf("merge pass performed %d loads for a %d-node list", loads, size)
	}
}
