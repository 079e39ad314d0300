package shard

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/seq/hashtable"
	"hcf/internal/witness"
)

func policies() []core.Policy { return hashtable.Policies() }

// newTestSharded builds a key-routed engine over the uniform ring.
func newTestSharded(t *testing.T, env memsim.Env, shards int) *Sharded {
	t.Helper()
	s, err := New(env, Config{Shards: shards, Key: hashtable.RouteKey, Policies: policies()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2})
	if _, err := New(env, Config{Shards: 0, Key: hashtable.RouteKey, Policies: policies()}); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("zero shards accepted: %v", err)
	}
	if _, err := New(env, Config{Shards: 2, Policies: policies()}); err == nil || !strings.Contains(err.Error(), "Key") {
		t.Errorf("nil key extractor accepted: %v", err)
	}
	ring, err := route.NewUniform(2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(env, Config{Shards: 3, Key: hashtable.RouteKey, Ring: ring, Policies: policies()}); err == nil || !strings.Contains(err.Error(), "ring") {
		t.Errorf("ring of the wrong size accepted: %v", err)
	}
	s := newTestSharded(t, env, 3)
	if s.Ring() == nil || s.Ring().NumShards() != 3 {
		t.Fatalf("default ring = %v, want a uniform 3-shard ring", s.Ring())
	}
	if s.Name() != "HCF-S" {
		t.Errorf("default name %q, want HCF-S", s.Name())
	}
	if s.NumShards() != 3 {
		t.Errorf("NumShards = %d, want 3", s.NumShards())
	}
	for i := 0; i < 3; i++ {
		if s.Shard(i) == nil {
			t.Fatalf("Shard(%d) is nil", i)
		}
	}
	if got := s.Shard(1).Name(); got != "HCF-S/1" {
		t.Errorf("shard 1 name %q, want HCF-S/1", got)
	}
}

func TestCompletionPaths(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2})
	s := newTestSharded(t, env, 2)
	want := []string{"TryPrivate", "TryVisible", "TryCombining", "CombineUnderLock", engine.PathCross}
	if got := s.CompletionPaths(); !reflect.DeepEqual(got, want) {
		t.Errorf("CompletionPaths = %v, want %v", got, want)
	}
}

// buildSharded constructs a sharded engine plus its tables over env.
func buildSharded(t *testing.T, env memsim.Env, shards int) (*Sharded, []*hashtable.Table) {
	t.Helper()
	boot := env.Boot()
	tables := make([]*hashtable.Table, shards)
	for i := range tables {
		tables[i] = hashtable.New(boot, 16)
	}
	return newTestSharded(t, env, shards), tables
}

// runMixed drives a mixed single-key + cross-shard workload and returns ops
// executed.
func runMixed(env memsim.Env, s *Sharded, tables []*hashtable.Table, perThread int) int {
	ring := s.Ring()
	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(uint64(th.ID())+1, 77))
		for i := 0; i < perThread; i++ {
			if rng.Uint64N(100) < 5 {
				s.Execute(th, hashtable.SumAllOp{Tables: tables})
				continue
			}
			k := rng.Uint64N(64)
			tbl := tables[ring.Owner(k)]
			switch rng.IntN(3) {
			case 0:
				s.Execute(th, hashtable.InsertOp{T: tbl, Key: k, Val: k})
			case 1:
				s.Execute(th, hashtable.FindOp{T: tbl, Key: k})
			default:
				s.Execute(th, hashtable.RemoveOp{T: tbl, Key: k})
			}
		}
	})
	return env.NumThreads() * perThread
}

// TestMetricsAndCrossOps checks that shard-local and cross-shard operations
// are both counted, and that the cross path is actually exercised.
func TestMetricsAndCrossOps(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 6})
	s, tables := buildSharded(t, env, 3)
	n := runMixed(env, s, tables, 50)
	m := s.Metrics()
	if m.Ops != uint64(n) {
		t.Errorf("metrics count %d ops, executed %d", m.Ops, n)
	}
	if s.CrossOps() == 0 {
		t.Error("no operations took the cross-shard path")
	}
	if s.CrossOps() >= uint64(n) {
		t.Errorf("all %d ops went cross-shard", n)
	}
	pb := s.PhaseBreakdown()
	if len(pb) != hashtable.NumClasses {
		t.Fatalf("phase breakdown has %d classes, want %d", len(pb), hashtable.NumClasses)
	}
	var phaseOps uint64
	for _, byPhase := range pb {
		for _, c := range byPhase {
			phaseOps += c
		}
	}
	if phaseOps+s.CrossOps() != uint64(n) {
		t.Errorf("phase completions %d + cross %d != %d executed", phaseOps, s.CrossOps(), n)
	}
	s.ResetMetrics()
	if after := s.Metrics(); after.Ops != 0 {
		t.Errorf("Ops = %d after reset", after.Ops)
	}
	if s.CrossOps() != 0 {
		t.Errorf("CrossOps = %d after reset", s.CrossOps())
	}
}

// TestWitnessUnderExploredSchedules is the package's linearizability gate:
// across many adversarially perturbed schedules (forced preemptions +
// priority jitter), every run's serialization witness — shard-local commits
// interleaved with cross-shard all-locks applications — must replay cleanly
// against a sequential model. Two combiners active on different shards is
// the common case at this thread count.
func TestWitnessUnderExploredSchedules(t *testing.T) {
	const seeds = 25
	for seed := uint64(0); seed < seeds; seed++ {
		env := memsim.NewDet(memsim.DetConfig{
			Threads: 6,
			Seed:    seed,
			Explore: memsim.ExploreConfig{Seed: seed, PreemptBudget: 48, JitterClass: 2},
		})
		s, tables := buildSharded(t, env, 3)
		rec := &witness.Recorder{}
		s.SetWitness(rec.Func())
		n := runMixed(env, s, tables, 40)
		if err := witness.Check(rec, hashtable.Model{}, n, hashtable.Rank); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDeterministicReplay pins that two identically configured runs produce
// identical witness recordings entry for entry (the property every repro
// workflow rests on).
func TestDeterministicReplay(t *testing.T) {
	run := func() []witness.Entry {
		env := memsim.NewDet(memsim.DetConfig{Threads: 5, Seed: 3})
		s, tables := buildSharded(t, env, 3)
		rec := &witness.Recorder{}
		s.SetWitness(rec.Func())
		runMixed(env, s, tables, 30)
		return rec.Entries()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay recorded %d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Stamp != b[i].Stamp || a[i].Result != b[i].Result {
			t.Fatalf("entry %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSingleShardMatchesFramework pins that a 1-shard Sharded engine with a
// shard-local-only workload behaves exactly like the framework it wraps:
// same results, same metrics.
func TestSingleShardMatchesFramework(t *testing.T) {
	runOne := func(sharded bool) (uint64, engine.Metrics) {
		env := memsim.NewDet(memsim.DetConfig{Threads: 4, Seed: 9})
		boot := env.Boot()
		tbl := hashtable.New(boot, 16)
		var eng engine.Engine
		if sharded {
			eng = newTestSharded(t, env, 1)
		} else {
			fw, err := core.New(env, core.Config{Policies: policies()})
			if err != nil {
				t.Fatal(err)
			}
			eng = fw
		}
		var sum uint64
		env.Run(func(th *memsim.Thread) {
			rng := rand.New(rand.NewPCG(uint64(th.ID())+1, 5))
			for i := 0; i < 60; i++ {
				k := rng.Uint64N(32)
				switch rng.IntN(3) {
				case 0:
					sum += eng.Execute(th, hashtable.InsertOp{T: tbl, Key: k, Val: k})
				case 1:
					sum += eng.Execute(th, hashtable.FindOp{T: tbl, Key: k})
				default:
					sum += eng.Execute(th, hashtable.RemoveOp{T: tbl, Key: k})
				}
			}
		})
		return sum, eng.Metrics()
	}
	fwSum, fwM := runOne(false)
	shSum, shM := runOne(true)
	if fwSum != shSum {
		t.Errorf("result checksums differ: framework %d, 1-shard %d", fwSum, shSum)
	}
	if !reflect.DeepEqual(fwM, shM) {
		t.Errorf("metrics differ:\nframework %+v\n1-shard   %+v", fwM, shM)
	}
}
