package shard

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/seq/hashtable"
	"hcf/internal/witness"
)

// buildElastic constructs an elastic engine over maxShards hashtable
// shards, starting with `initial` active.
func buildElastic(t *testing.T, env memsim.Env, maxShards, initial int) (*Elastic, []*hashtable.Table) {
	t.Helper()
	boot := env.Boot()
	tables := make([]*hashtable.Table, maxShards)
	for i := range tables {
		tables[i] = hashtable.New(boot, 16)
	}
	e, err := NewElastic(env, ElasticConfig{
		MaxShards: maxShards,
		Initial:   initial,
		Slots:     64,
		Key:       hashtable.RouteKey,
		Bind:      bindTables(tables),
		Migrate:   migrateTables(tables),
		Policies:  policies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tables
}

func bindTables(tables []*hashtable.Table) func(op engine.Op, si int) engine.Op {
	return func(op engine.Op, si int) engine.Op {
		switch o := op.(type) {
		case hashtable.FindOp:
			o.T = tables[si]
			return o
		case hashtable.InsertOp:
			o.T = tables[si]
			return o
		case hashtable.RemoveOp:
			o.T = tables[si]
			return o
		}
		return op
	}
}

func migrateTables(tables []*hashtable.Table) MigrateFunc {
	return func(ctx memsim.Ctx, from, to int, old, next *route.Ring) int {
		return hashtable.MigrateTables(ctx, tables, from, next)
	}
}

func TestElasticConfigValidation(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2})
	tables := []*hashtable.Table{hashtable.New(env.Boot(), 16)}
	base := ElasticConfig{
		MaxShards: 1,
		Key:       hashtable.RouteKey,
		Bind:      bindTables(tables),
		Migrate:   migrateTables(tables),
		Policies:  policies(),
	}
	bad := base
	bad.MaxShards = 0
	if _, err := NewElastic(env, bad); err == nil {
		t.Error("MaxShards=0 accepted")
	}
	bad = base
	bad.Key = nil
	if _, err := NewElastic(env, bad); err == nil {
		t.Error("nil Key accepted")
	}
	bad = base
	bad.Bind = nil
	if _, err := NewElastic(env, bad); err == nil {
		t.Error("nil Bind accepted")
	}
	bad = base
	bad.Migrate = nil
	if _, err := NewElastic(env, bad); err == nil {
		t.Error("nil Migrate accepted")
	}
	bad = base
	bad.Initial = 2
	if _, err := NewElastic(env, bad); err == nil {
		t.Error("Initial > MaxShards accepted")
	}
	e, err := NewElastic(env, base)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "HCF-E" {
		t.Errorf("default name %q, want HCF-E", e.Name())
	}
	if e.NumShards() != 1 {
		t.Errorf("NumShards = %d, want 1 (provisioned)", e.NumShards())
	}
}

// TestSplitMergeNoLostKeys is the zero-lost/zero-duplicated-keys gate:
// populate, split twice, merge back, and require the exact same key set
// with the exact same values, each key present in exactly one table —
// the table the final ring routes it to.
func TestSplitMergeNoLostKeys(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2, Seed: 1})
	e, tables := buildElastic(t, env, 4, 1)
	const keys = 200
	env.Run(func(th *memsim.Thread) {
		if th.ID() != 0 {
			return
		}
		for k := uint64(0); k < keys; k++ {
			e.Execute(th, hashtable.InsertOp{Key: k, Val: k * 3})
		}
		check := func(when string) {
			ring := e.Table().Load()
			seen := make(map[uint64]uint64)
			for i, tbl := range tables {
				tbl.Iterate(th, func(k, v uint64) bool {
					if _, dup := seen[k]; dup {
						t.Errorf("%s: key %d present in two tables", when, k)
					}
					seen[k] = v
					if ring.Owner(k) != i {
						t.Errorf("%s: key %d lives in table %d, ring owner %d", when, k, i, ring.Owner(k))
					}
					return true
				})
			}
			if len(seen) != keys {
				t.Errorf("%s: %d keys present, want %d", when, len(seen), keys)
			}
			for k, v := range seen {
				if v != k*3 {
					t.Errorf("%s: key %d has value %d, want %d", when, k, v, k*3)
				}
			}
		}
		check("initial")

		to, moved, err := e.Split(th, 0)
		if err != nil {
			t.Fatal(err)
		}
		if to != 1 || moved == 0 {
			t.Fatalf("first split: to=%d moved=%d", to, moved)
		}
		check("after split 0")

		if _, _, err := e.Split(th, 0); err != nil {
			t.Fatal(err)
		}
		check("after split 0 again")

		if _, err := e.Merge(th, 2, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Merge(th, 1, 0); err != nil {
			t.Fatal(err)
		}
		if e.Table().Load().Active() != 1 {
			t.Fatalf("active = %d after merges", e.Table().Load().Active())
		}
		check("after merges")

		top := e.Topology()
		if top.Splits != 2 || top.Merges != 2 {
			t.Errorf("topology counts splits=%d merges=%d", top.Splits, top.Merges)
		}
		if top.MovedKeys == 0 {
			t.Error("topology reports no moved keys")
		}
		if top.Ring.Epoch != 4 {
			t.Errorf("ring epoch %d, want 4", top.Ring.Epoch)
		}
	})
}

// runElasticMixed drives a mixed keyed + cross-shard workload; thread 0
// additionally injects a split and a merge mid-run.
func runElasticMixed(env memsim.Env, e *Elastic, tables []*hashtable.Table, perThread int) int {
	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(uint64(th.ID())+1, 77))
		for i := 0; i < perThread; i++ {
			if th.ID() == 0 && i == perThread/3 {
				e.Split(th, hottestActive(e))
			}
			if th.ID() == 0 && i == 2*perThread/3 {
				ring := e.Table().Load()
				// Merge the most recently activated shard back into 0.
				for s := ring.NumShards() - 1; s > 0; s-- {
					if ring.SlotCount(s) > 0 {
						e.Merge(th, s, 0)
						break
					}
				}
			}
			if rng.Uint64N(100) < 5 {
				e.Execute(th, hashtable.SumAllOp{Tables: tables})
				continue
			}
			k := rng.Uint64N(64)
			switch rng.IntN(3) {
			case 0:
				e.Execute(th, hashtable.InsertOp{Key: k, Val: k})
			case 1:
				e.Execute(th, hashtable.FindOp{Key: k})
			default:
				e.Execute(th, hashtable.RemoveOp{Key: k})
			}
		}
	})
	return env.NumThreads() * perThread
}

func hottestActive(e *Elastic) int {
	ring := e.Table().Load()
	ops := e.ShardOps()
	best, bestOps := 0, uint64(0)
	for i, n := range ops {
		if ring.SlotCount(i) > 1 && n >= bestOps {
			best, bestOps = i, n
		}
	}
	return best
}

// TestElasticWitnessUnderExploredSchedules is the resharding
// linearizability gate the ISSUE asks for: across adversarially
// perturbed schedules, concurrent shard-local ops + cross-shard scans +
// an injected online split and merge must produce a witness that
// replays cleanly against the sequential model. Keys must route
// correctly before, during and after each topology change.
func TestElasticWitnessUnderExploredSchedules(t *testing.T) {
	const seeds = 25
	for seed := uint64(0); seed < seeds; seed++ {
		env := memsim.NewDet(memsim.DetConfig{
			Threads: 6,
			Seed:    seed,
			Explore: memsim.ExploreConfig{Seed: seed, PreemptBudget: 48, JitterClass: 2},
		})
		e, tables := buildElastic(t, env, 4, 2)
		rec := &witness.Recorder{}
		e.SetWitness(rec.Func())
		n := runElasticMixed(env, e, tables, 40)
		if err := witness.Check(rec, hashtable.Model{}, n, hashtable.Rank); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestElasticDeterministicReplay pins byte-for-byte witness determinism
// with resharding in the schedule.
func TestElasticDeterministicReplay(t *testing.T) {
	run := func() []witness.Entry {
		env := memsim.NewDet(memsim.DetConfig{Threads: 5, Seed: 3})
		e, tables := buildElastic(t, env, 4, 2)
		rec := &witness.Recorder{}
		e.SetWitness(rec.Func())
		runElasticMixed(env, e, tables, 30)
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

// TestRebalancerSplitsHotShard drives a skewed workload (every key
// owned by shard 0 of the initial two) and requires the rebalancer to
// split the hot shard, journaling the decision with its evidence.
func TestRebalancerSplitsHotShard(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 4, Seed: 2})
	e, _ := buildElastic(t, env, 4, 2)
	rb := NewRebalancer(e, RebalanceConfig{SplitRatio: 1.5, MinOps: 50, Cooldown: 1})
	// Hot key set: everything the initial ring routes to shard 0.
	var hot []uint64
	for k := uint64(0); k < 256; k++ {
		if e.Table().Load().Owner(k) == 0 {
			hot = append(hot, k)
		}
	}
	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(uint64(th.ID())+1, 9))
		for i := 0; i < 150; i++ {
			k := hot[rng.IntN(len(hot))]
			e.Execute(th, hashtable.InsertOp{Key: k, Val: k})
			if th.ID() == 0 && i%50 == 49 {
				rb.Step(th)
			}
		}
	})
	ds := rb.Journal().Entries()
	if len(ds) == 0 {
		t.Fatal("no decisions journaled")
	}
	split := false
	for _, d := range ds {
		if d.Action == "split" {
			split = true
			if d.Reason != "hot-shard" || d.From < 0 || d.To < 0 || len(d.WindowOps) != 4 {
				t.Errorf("split decision malformed: %+v", d)
			}
		}
	}
	if !split {
		t.Fatalf("rebalancer never split; journal:\n%v", ds)
	}
	if e.Table().Load().Active() < 2 {
		t.Error("ring still has one active shard after split")
	}
}

// TestRebalancerJournalDeterminism is the ISSUE's determinism satellite:
// the rebalancer's serialized journal must be byte-identical across two
// runs with the same seed, and differ for a different seed (the journal
// actually depends on the traffic).
func TestRebalancerJournalDeterminism(t *testing.T) {
	run := func(seed uint64) []byte {
		env := memsim.NewDet(memsim.DetConfig{Threads: 4, Seed: seed})
		e, _ := buildElastic(t, env, 4, 2)
		rb := NewRebalancer(e, RebalanceConfig{MinOps: 50, Cooldown: 1})
		env.Run(func(th *memsim.Thread) {
			rng := rand.New(rand.NewPCG(uint64(th.ID())+seed, 9))
			for i := 0; i < 120; i++ {
				k := rng.Uint64N(1 << 30)
				e.Execute(th, hashtable.FindOp{Key: k})
				if th.ID() == 0 && i%40 == 39 {
					rb.Step(th)
				}
			}
		})
		j, err := rb.Journal().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a1, a2, b := run(1), run(1), run(7)
	if !bytes.Equal(a1, a2) {
		t.Fatalf("journal not byte-identical for same seed:\n%s\nvs\n%s", a1, a2)
	}
	if bytes.Equal(a1, b) {
		t.Error("journals identical across different seeds — journal ignores traffic?")
	}
	if !strings.Contains(string(a1), `"window_ops"`) {
		t.Error("journal entries missing evidence fields")
	}
}

// TestSplitErrors pins the error surface: no spare shard, stale
// topology handled by callers.
func TestSplitErrors(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2, Seed: 1})
	e, _ := buildElastic(t, env, 2, 2)
	env.Run(func(th *memsim.Thread) {
		if th.ID() != 0 {
			return
		}
		if _, _, err := e.Split(th, 0); err != ErrNoSpareShard {
			t.Errorf("Split with no spare: %v, want ErrNoSpareShard", err)
		}
		if _, err := e.Merge(th, 1, 0); err != nil {
			t.Errorf("Merge failed: %v", err)
		}
		if _, _, err := e.Split(th, 0); err != nil {
			t.Errorf("Split after merge failed: %v", err)
		}
	})
}
