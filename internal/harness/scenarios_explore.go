package harness

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/seq/avl"
	"hcf/internal/seq/hashtable"
	"hcf/internal/seq/setops"
	"hcf/internal/shard"
	"hcf/internal/trace"
	"hcf/internal/witness"
)

// Settings of every explored run (hcfbench -fig explore): exploreOps
// operations per thread under exploreJitterPct% cost jitter, a forced-
// preemption budget and a priority-jitter class (memsim.ExploreConfig),
// and a flight recorder of exploreFlight events per thread.
const (
	ExploreThreads       = 7 // the default thread count
	exploreOps           = 40
	exploreJitterPct     = 40
	exploreFlight        = 256
	explorePreemptBudget = 48
	exploreJitterClass   = 2
)

// Explorable is a scenario the explore sweep can witness-check: its
// instances set Model (and Rank when Combine reorders a batch), and
// Engines lists every engine that can run it.
type Explorable struct {
	Scenario
	Engines []string
}

// ExploreScenarios returns the explore sweep's registry: a shared
// counter, a hash table, an AVL set, a hash table over three shards, and
// the same over a live topology.
func ExploreScenarios() []Explorable {
	sharded := append(slices.Clone(EngineNames), ShardedEngineName)
	return []Explorable{
		{Scenario{Name: "counter", Setup: exploreCounter}, EngineNames},
		{Scenario{Name: "hashtable", Setup: exploreHashTable}, EngineNames},
		{Scenario{Name: "avl", Setup: exploreAVL}, EngineNames},
		{Scenario{Name: "sharded", Setup: exploreSharded}, sharded},
		{Scenario{Name: "elastic", Setup: exploreElastic}, []string{ElasticEngineName}},
	}
}

// ExploreCase is one (scenario, engine) combination of an explore sweep.
type ExploreCase struct {
	Scenario
	Engine string
}

// PlanExplore lists the combinations of the named scenarios of reg (every
// one for no names) with engines, in the order given (each scenario's own
// engines for none). An unknown scenario, or an engine a chosen scenario
// does not list, is an error before anything runs; one error names all.
func PlanExplore(reg []Explorable, names, engines []string) ([]ExploreCase, error) {
	known := make([]string, len(reg))
	for i := range reg {
		known[i] = reg[i].Name
	}
	if len(names) == 0 {
		names = known
	}
	var plan []ExploreCase
	var bad []string
	for _, name := range names {
		i := slices.Index(known, name)
		if i < 0 {
			bad = append(bad, fmt.Sprintf("unknown scenario %q (known scenarios: %s)", name, strings.Join(known, ", ")))
			continue
		}
		use := engines
		if len(use) == 0 {
			use = reg[i].Engines
		}
		for _, e := range use {
			if !slices.Contains(reg[i].Engines, e) {
				bad = append(bad, fmt.Sprintf("engine %s cannot run scenario %s (its engines: %s)",
					e, name, strings.Join(reg[i].Engines, ", ")))
			}
			plan = append(plan, ExploreCase{reg[i].Scenario, e})
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("harness: %s", strings.Join(bad, "; "))
	}
	return plan, nil
}

// ExploreSweep runs every case of plan at each seed first ..
// first+seeds-1 on up to parallel host goroutines (0 = all host cores),
// and calls fail for each failed run, in seed then plan order at any
// parallelism.
func ExploreSweep(plan []ExploreCase, threads int, first uint64, seeds, parallel int, fail func(c ExploreCase, seed uint64, err error)) {
	errs := make([]error, len(plan))
	for s := range seeds {
		seed := first + uint64(s)
		forEachPoint(len(plan), parallel, func(i int) error {
			_, errs[i] = RunExplored(plan[i].Scenario, plan[i].Engine, threads, seed)
			return nil
		})
		for i, err := range errs {
			if err != nil {
				fail(plan[i], seed, err)
			}
		}
	}
}

// RunExplored runs one witness-checked combination: threads virtual
// threads each apply exploreOps of sc's operations under engineName, on a
// schedule that seed perturbs through cost jitter, randomized thread
// priorities and forced preemptions (memsim.ExploreConfig). It returns the
// run's artifact, the witness recording in arrival order followed by the
// flight recorder's dump, which every replay of the combination
// reproduces byte for byte. A witness violation is the error; it carries
// the flight dump and a minimized trace of the last operation spans.
func RunExplored(sc Scenario, engineName string, threads int, seed uint64) (string, error) {
	cost := memsim.DefaultCostParams()
	cost.JitterPct = exploreJitterPct
	env := memsim.NewDet(memsim.DetConfig{Threads: threads, Cost: cost, Seed: seed,
		Explore: memsim.ExploreConfig{Seed: seed, PreemptBudget: explorePreemptBudget, JitterClass: exploreJitterClass}})
	inst := sc.Setup(env, seed)
	if inst.Model == nil {
		return "", fmt.Errorf("harness: scenario %s has no replay model", sc.Name)
	}
	// A zero Config, deliberately not normalized (normalizing turns on
	// HTM noise): no noise and the engines' default budgets.
	eng, err := BuildEngine(engineName, env, inst, Config{})
	if err != nil {
		return "", err
	}
	rec := &witness.Recorder{}
	eng.(engine.WitnessedEngine).SetWitness(rec.Func()) // every engine is
	// The flight recorder keeps each thread's most recent lifecycle
	// events, dumped with the error when the witness fails.
	var flight *trace.Collector
	var fr witness.FlightSource
	if te, ok := eng.(core.TracedEngine); ok {
		flight = &trace.Collector{Limit: exploreFlight}
		te.SetTracer(flight)
		fr = flight
	}
	elastic, _ := eng.(*shard.Elastic) // built only for an Elastic plan
	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(uint64(th.ID()), seed))
		for i := 0; i < exploreOps; i++ {
			if th.ID() == 0 && elastic != nil && inst.Elastic.Reshard != nil {
				inst.Elastic.Reshard(th, elastic, i, exploreOps)
			}
			eng.Execute(th, inst.NextOp(rng))
		}
	})
	err = witness.CheckDump(rec, inst.Model, threads*exploreOps, inst.Rank, fr, 120)
	if err != nil && flight != nil {
		if mt := spanTrace(flight, 12); mt != "" {
			err = fmt.Errorf("%w\nminimized span trace (last operations):\n%s", err, mt)
		}
	}
	var b strings.Builder
	for _, e := range rec.Entries() {
		fmt.Fprintf(&b, "%d %d %s = %d\n", e.Stamp, e.Intra, opString(e.Op), e.Result)
	}
	if flight != nil {
		b.WriteString("-- flight --\n")
		b.WriteString(flight.FlightDump(0))
	}
	return b.String(), err
}

// spanTrace reduces the flight recorder's events to the last n complete
// operation spans, the causal neighborhood of a failure, one line each.
func spanTrace(col *trace.Collector, n int) string {
	spans := trace.BuildSpans(col.Events())
	sort.Slice(spans, func(i, j int) bool { return spans[i].End < spans[j].End })
	if len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	var b strings.Builder
	for i := range spans {
		sp := &spans[i]
		fmt.Fprintf(&b, "span t%d/#%d class=%d [%d..%d] done=%s attempts=%d aborts=%d",
			sp.Thread, sp.ID&0xFFFFFFFF, sp.Class, sp.Start, sp.End, sp.DonePhase, sp.Attempts, sp.Aborts)
		if sp.Helped {
			fmt.Fprintf(&b, " helped-by=t%d", sp.Helper)
		}
		for _, h := range sp.Helps {
			fmt.Fprintf(&b, " helps=t%d@%d", h.Peer, h.At)
		}
		if !sp.Complete {
			b.WriteString(" (truncated)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// opString renders an operation without pointer identities, for the
// byte-comparable artifact.
func opString(op engine.Op) string {
	switch o := op.(type) {
	case incOp:
		return "inc"
	case hashtable.FindOp:
		return fmt.Sprintf("ht.find(%d)", o.Key)
	case hashtable.InsertOp:
		return fmt.Sprintf("ht.insert(%d,%d)", o.Key, o.Val)
	case hashtable.RemoveOp:
		return fmt.Sprintf("ht.remove(%d)", o.Key)
	case hashtable.SumAllOp:
		return "ht.sumall"
	case avl.FindOp:
		return fmt.Sprintf("avl.find(%d)", o.K)
	case avl.InsertOp:
		return fmt.Sprintf("avl.insert(%d)", o.K)
	case avl.RemoveOp:
		return fmt.Sprintf("avl.remove(%d)", o.K)
	}
	return fmt.Sprintf("%T", op)
}

// incOp is the counter scenario's operation: fetch-and-increment.
type incOp struct{ addr memsim.Addr }

func (o incOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o incOp) Class() int { return 0 }

// counterModel replays incOps.
type counterModel struct{ v uint64 }

func (m *counterModel) Apply(engine.Op) uint64 {
	m.v++
	return m.v - 1
}

// exploreCounter is one shared counter that every thread increments; a
// combiner applies its whole batch with one load and one store.
func exploreCounter(env memsim.Env, _ uint64) Instance {
	counter := env.Alloc(1)
	combine := func(ctx memsim.Ctx, ops []engine.Op, res []uint64, done []bool) {
		v := ctx.Load(counter)
		for i := range ops {
			if !done[i] {
				res[i] = v
				v++
				done[i] = true
			}
		}
		ctx.Store(counter, v)
	}
	return Instance{
		Policies: []core.Policy{{
			TryPrivateTrials: 2, TryVisibleTrials: 2, TryCombiningTrials: 4,
			RunMulti: combine,
		}},
		Combine: combine,
		NextOp:  func(*rand.Rand) engine.Op { return incOp{addr: counter} },
		Model:   &counterModel{},
	}
}

// exploreHashTable is a 32-bucket table over 48 keys, starting empty,
// with equal thirds of Inserts, Finds and Removes.
func exploreHashTable(env memsim.Env, seed uint64) Instance {
	tbl := hashtable.New(env.Boot(), 32)
	return Instance{
		Policies: hashtable.Policies(),
		Combine:  hashtable.CombineMixed,
		NextOp: func(r *rand.Rand) engine.Op {
			key := r.Uint64N(48)
			switch r.IntN(3) {
			case 0:
				return hashtable.InsertOp{T: tbl, Key: key, Val: key ^ seed}
			case 1:
				return hashtable.FindOp{T: tbl, Key: key}
			default:
				return hashtable.RemoveOp{T: tbl, Key: key}
			}
		},
		Model: hashtable.Model{},
		Rank:  hashtable.Rank,
	}
}

// exploreSharded partitions an insert-heavy hash-table workload over
// three tables by the shared consistent-hash ring (internal/route), so
// combiners on different shards run concurrently.
func exploreSharded(env memsim.Env, seed uint64) Instance {
	const shards = 3
	ring, err := route.NewUniform(shards, 0, shards)
	if err != nil {
		panic(err) // static misconfiguration
	}
	inst, _ := exploreTables(env, ring, shards, seed, 0x5AD, false)
	inst.Sharding = &Sharding{Shards: shards, Key: hashtable.RouteKey, Ring: ring}
	return inst
}

// exploreElastic is the sharded workload over a live topology: four
// provisioned tables of which two start active, operations submitted
// unbound (the engine's Bind hook attaches the owning table at apply
// time), and thread 0 splitting a shard a third of the way through its
// operations and merging one back two thirds through, both racing the
// witnessed traffic.
func exploreElastic(env memsim.Env, seed uint64) Instance {
	const (
		maxShards = 4
		initial   = 2
		slots     = 8
	)
	ring, err := route.NewUniform(initial, slots, maxShards)
	if err != nil {
		panic(err) // static misconfiguration
	}
	inst, tables := exploreTables(env, ring, maxShards, seed, 0xE1A, true)
	inst.Elastic = &ElasticPlan{
		MaxShards: maxShards,
		Initial:   initial,
		Slots:     slots,
		Key:       hashtable.RouteKey,
		Bind: func(op engine.Op, si int) engine.Op {
			return hashtable.BindTable(op, tables[si])
		},
		Migrate: func(ctx memsim.Ctx, from, to int, old, next *route.Ring) int {
			return hashtable.MigrateTables(ctx, tables, from, next)
		},
		Reshard: func(th *memsim.Thread, e *shard.Elastic, i, perThread int) {
			switch i {
			case perThread / 3:
				// Split the first active shard; tiny budgets may leave
				// no spare, which is a legal no-op for the witness.
				_, _, _ = e.Split(th, 0)
			case 2 * perThread / 3:
				// Fold the highest-numbered active shard back into 0.
				r := e.Table().Load()
				for s := r.NumShards() - 1; s > 0; s-- {
					if r.SlotCount(s) > 0 {
						_, _ = e.Merge(th, s, 0)
						break
					}
				}
			}
		},
	}
	return inst
}

// exploreTables builds n 16-bucket tables, inserts 16 keys drawn from a
// PCG on (seed, stream) into the tables ring routes them to, and returns
// an instance over them: half Inserts, a quarter each Finds and Removes
// over 48 keys, and 4% whole-structure scans on a sharded engine's
// all-locks path. Unbound operations carry no table.
func exploreTables(env memsim.Env, ring *route.Ring, n int, seed, stream uint64, unbound bool) (Instance, []*hashtable.Table) {
	boot := env.Boot()
	tables := make([]*hashtable.Table, n)
	for i := range tables {
		tables[i] = hashtable.New(boot, 16)
	}
	model := hashtable.Model{}
	pre := rand.New(rand.NewPCG(seed, stream))
	for i := 0; i < 16; i++ {
		k := pre.Uint64N(48)
		if tables[ring.Owner(k)].Insert(boot, k, k) {
			model[k] = k
		}
	}
	return Instance{
		Policies: hashtable.Policies(),
		Combine:  hashtable.CombineMixed,
		NextOp: func(r *rand.Rand) engine.Op {
			if r.Uint64N(100) < 4 {
				return hashtable.SumAllOp{Tables: tables}
			}
			key := r.Uint64N(48)
			var tbl *hashtable.Table
			if !unbound {
				tbl = tables[ring.Owner(key)]
			}
			switch r.IntN(4) {
			case 0, 1:
				return hashtable.InsertOp{T: tbl, Key: key, Val: key ^ seed}
			case 2:
				return hashtable.FindOp{T: tbl, Key: key}
			default:
				return hashtable.RemoveOp{T: tbl, Key: key}
			}
		},
		Model: model,
		Rank:  hashtable.Rank,
	}, tables
}

// exploreAVL is an AVL set over 48 keys, prefilled with 24 draws, with
// equal thirds of Inserts, Finds and Removes.
func exploreAVL(env memsim.Env, seed uint64) Instance {
	boot := env.Boot()
	tree := avl.New(boot)
	model := setops.Model{}
	pre := rand.New(rand.NewPCG(seed, 0xAB1))
	for i := 0; i < 24; i++ {
		k := pre.Uint64N(48)
		tree.Insert(boot, k)
		model[k] = true
	}
	return Instance{
		Policies: avl.Policies(1),
		Combine:  avl.CombineOps,
		NextOp: func(r *rand.Rand) engine.Op {
			key := r.Uint64N(48)
			switch r.IntN(3) {
			case 0:
				return avl.InsertOp{T: tree, K: key}
			case 1:
				return avl.FindOp{T: tree, K: key}
			default:
				return avl.RemoveOp{T: tree, K: key}
			}
		},
		Model: model,
		Rank:  setops.Rank,
	}
}
