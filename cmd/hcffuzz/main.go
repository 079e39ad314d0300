// Command hcffuzz runs the serialization-witness linearizability checker
// over many perturbed deterministic schedules. Each seed produces a
// different — but exactly reproducible — interleaving via cost-model
// jitter and, with -explore, adversarial schedule exploration (randomized
// thread priorities plus bounded forced-preemption injection; see
// memsim.ExploreConfig). Every engine must produce a valid linearization
// witness under every schedule.
//
// Usage:
//
//	hcffuzz -seeds 50                       # fuzz all engines, default workload
//	hcffuzz -seeds 200 -engines HCF -threads 9 -jitter 60
//	hcffuzz -seeds 25 -scenario hashtable   # counter | hashtable | avl | sharded | elastic
//	hcffuzz -explore -seeds 200 -scenario hashtable,avl
//	hcffuzz -explore -seeds 200 -scenario sharded -engines HCF-S
//	hcffuzz -explore -seeds 200 -scenario elastic -engines HCF-E
//
// Without -explore a failure aborts the run and prints the seed; rerunning
// with -seeds-from <seed> -seeds 1 reproduces it exactly. With -explore the
// sweep keeps going: failures are aggregated, each one prints a single-line
// `go run ./cmd/hcffuzz ...` repro command plus the flight-recorder dump
// and a minimized span trace, and the process exits non-zero at the end.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/harness"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/seq/avl"
	"hcf/internal/seq/hashtable"
	"hcf/internal/seq/setops"
	"hcf/internal/shard"
	"hcf/internal/trace"
	"hcf/internal/witness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcffuzz:", err)
		os.Exit(1)
	}
}

type fuzzCfg struct {
	threads   int
	perThread int
	jitterPct int64
	flight    int
	explore   memsim.ExploreConfig // Seed filled in per run
}

func (c fuzzCfg) exploring() bool {
	return c.explore.PreemptBudget > 0 || c.explore.JitterClass > 0
}

// reproCommand renders the exact single-line command that replays one
// (engine, scenario, seed) combination.
func (c fuzzCfg) reproCommand(engineName, scenario string, seed uint64) string {
	cmd := fmt.Sprintf("go run ./cmd/hcffuzz -seeds 1 -seeds-from %d -engines %s -scenario %s -threads %d -ops %d -jitter %d -flight %d",
		seed, engineName, scenario, c.threads, c.perThread, c.jitterPct, c.flight)
	if c.exploring() {
		cmd += fmt.Sprintf(" -explore -preempt-budget %d -jitter-class %d",
			c.explore.PreemptBudget, c.explore.JitterClass)
	}
	return cmd
}

func run(args []string) error {
	fs := flag.NewFlagSet("hcffuzz", flag.ContinueOnError)
	var (
		seeds     = fs.Int("seeds", 20, "number of schedules to explore")
		seedsFrom = fs.Uint64("seeds-from", 0, "first seed")
		threads   = fs.Int("threads", 7, "simulated threads")
		perThread = fs.Int("ops", 40, "operations per thread")
		jitter    = fs.Int64("jitter", 40, "cost jitter percent")
		engs      = fs.String("engines", "Lock,TLE,FC,SCM,TLE+FC,HCF", "engines to fuzz")
		scenario  = fs.String("scenario", "hashtable", "comma-separated workloads: counter | hashtable | avl | sharded | elastic")
		flight    = fs.Int("flight", 256, "flight-recorder ring size per thread (0 disables)")
		explore   = fs.Bool("explore", false, "adversarial schedule exploration: sweep mode, aggregate failures")
		budget    = fs.Int("preempt-budget", 48, "forced preemptions injected per explored run")
		jclass    = fs.Int("jitter-class", 2, "priority-perturbation intensity 0..3 for explored runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := fuzzCfg{
		threads:   *threads,
		perThread: *perThread,
		jitterPct: *jitter,
		flight:    *flight,
	}
	if *explore {
		cfg.explore = memsim.ExploreConfig{PreemptBudget: *budget, JitterClass: *jclass}
		if !cfg.exploring() {
			return fmt.Errorf("-explore needs -preempt-budget or -jitter-class > 0")
		}
	}
	names := strings.Split(*engs, ",")
	scens := strings.Split(*scenario, ",")
	checked, failed := 0, 0
	for s := 0; s < *seeds; s++ {
		seed := *seedsFrom + uint64(s)
		for _, scen := range scens {
			for _, name := range names {
				_, err := fuzzOne(cfg, name, scen, seed)
				checked++
				if err == nil {
					continue
				}
				if !*explore {
					return fmt.Errorf("engine %s, scenario %s, seed %d: %w", name, scen, seed, err)
				}
				failed++
				fmt.Printf("FAIL engine=%s scenario=%s seed=%d\n", name, scen, seed)
				fmt.Printf("repro: %s\n", cfg.reproCommand(name, scen, seed))
				fmt.Printf("%v\n", err)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d schedule×engine×workload combinations failed the witness", failed, checked)
	}
	mode := "schedules"
	if *explore {
		mode = "explored schedules"
	}
	fmt.Printf("ok: %d %s×engine×workload combinations produced valid linearizations\n", checked, mode)
	return nil
}

// incOp is the counter workload's operation.
type incOp struct{ addr memsim.Addr }

func (o incOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o incOp) Class() int { return 0 }

// counterModel replays incOps.
type counterModel struct{ v uint64 }

func (m *counterModel) Apply(op engine.Op) uint64 {
	m.v++
	return m.v - 1
}

// mapModel replays hash-table ops.
type mapModel struct{ m map[uint64]uint64 }

func (mm *mapModel) Apply(op engine.Op) uint64 {
	switch o := op.(type) {
	case hashtable.FindOp:
		v, ok := mm.m[o.Key]
		return engine.Pack(v, ok)
	case hashtable.InsertOp:
		_, existed := mm.m[o.Key]
		mm.m[o.Key] = o.Val
		return engine.PackBool(!existed)
	case hashtable.RemoveOp:
		_, existed := mm.m[o.Key]
		delete(mm.m, o.Key)
		return engine.PackBool(existed)
	case hashtable.SumAllOp:
		var sum uint64
		for _, v := range mm.m {
			sum += v
		}
		return engine.Pack(sum&((1<<63)-1), true)
	}
	return 0
}

func insertsLast(op engine.Op) int {
	if _, ok := op.(hashtable.InsertOp); ok {
		return 1
	}
	return 0
}

// opString renders an operation without pointer identities, for the
// byte-comparable witness artifact.
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

// fuzzScenario is one constructed workload over a fresh environment: the
// engine plumbing harness.BuildEngine takes, plus the witness model and
// rank.
type fuzzScenario struct {
	inst  harness.Instance
	model witness.Model
	rank  func(op engine.Op) int
	// reshard, when non-nil, is called from thread 0 before each of its
	// operations under HCF-E so splits and merges land mid-schedule,
	// racing the witnessed traffic.
	reshard func(th *memsim.Thread, e *shard.Elastic, i, perThread int)
}

func buildScenario(name string, env memsim.Env, seed uint64) (*fuzzScenario, error) {
	switch name {
	case "counter":
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
		return &fuzzScenario{
			inst: harness.Instance{
				Policies: []core.Policy{{
					TryPrivateTrials: 2, TryVisibleTrials: 2, TryCombiningTrials: 4,
					RunMulti: combine,
				}},
				Combine: combine,
				NextOp:  func(r *rand.Rand) engine.Op { return incOp{addr: counter} },
			},
			model: &counterModel{},
		}, nil
	case "hashtable":
		tbl := hashtable.New(env.Boot(), 32)
		return &fuzzScenario{
			inst: harness.Instance{
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
			},
			model: &mapModel{m: map[uint64]uint64{}},
			rank:  insertsLast,
		}, nil
	case "sharded":
		// The §3.3 workload partitioned over three sub-tables by the
		// shared consistent-hash ring (internal/route), insert-heavy so
		// combiners on different shards run concurrently, with occasional
		// whole-structure scans forcing the cross-shard all-locks path.
		const shards = 3
		ring, err := route.NewUniform(shards, 0, shards)
		if err != nil {
			return nil, err
		}
		boot := env.Boot()
		tables := make([]*hashtable.Table, shards)
		for i := range tables {
			tables[i] = hashtable.New(boot, 16)
		}
		model := &mapModel{m: map[uint64]uint64{}}
		pre := rand.New(rand.NewPCG(seed, 0x5AD))
		for i := 0; i < 16; i++ {
			k := pre.Uint64N(48)
			if tables[ring.Owner(k)].Insert(boot, k, k) {
				model.m[k] = k
			}
		}
		return &fuzzScenario{
			inst: harness.Instance{
				Policies: hashtable.Policies(),
				Combine:  hashtable.CombineMixed,
				NextOp: func(r *rand.Rand) engine.Op {
					if r.Uint64N(100) < 4 {
						return hashtable.SumAllOp{Tables: tables}
					}
					key := r.Uint64N(48)
					tbl := tables[ring.Owner(key)]
					switch r.IntN(4) {
					case 0, 1:
						return hashtable.InsertOp{T: tbl, Key: key, Val: key ^ seed}
					case 2:
						return hashtable.FindOp{T: tbl, Key: key}
					default:
						return hashtable.RemoveOp{T: tbl, Key: key}
					}
				},
				Sharding: &harness.Sharding{Shards: shards, Key: hashtable.RouteKey, Ring: ring},
			},
			model: model,
			rank:  insertsLast,
		}, nil
	case "elastic":
		// The sharded workload over a LIVE topology: 4 provisioned tables
		// with 2 initially active, operations submitted unbound (the
		// engine's Bind hook attaches the owning table at apply time), and
		// thread 0 injecting a Split a third of the way through its
		// schedule and a Merge two thirds through — both racing the
		// witnessed shard-local and cross-shard traffic. HCF-E only.
		const (
			maxShards = 4
			initial   = 2
			slots     = 8
		)
		ring, err := route.NewUniform(initial, slots, maxShards)
		if err != nil {
			return nil, err
		}
		boot := env.Boot()
		tables := make([]*hashtable.Table, maxShards)
		for i := range tables {
			tables[i] = hashtable.New(boot, 16)
		}
		model := &mapModel{m: map[uint64]uint64{}}
		pre := rand.New(rand.NewPCG(seed, 0xE1A))
		for i := 0; i < 16; i++ {
			k := pre.Uint64N(48)
			if tables[ring.Owner(k)].Insert(boot, k, k) {
				model.m[k] = k
			}
		}
		return &fuzzScenario{
			inst: harness.Instance{
				Policies: hashtable.Policies(),
				Combine:  hashtable.CombineMixed,
				NextOp: func(r *rand.Rand) engine.Op {
					if r.Uint64N(100) < 4 {
						return hashtable.SumAllOp{Tables: tables}
					}
					key := r.Uint64N(48)
					switch r.IntN(4) {
					case 0, 1:
						return hashtable.InsertOp{Key: key, Val: key ^ seed}
					case 2:
						return hashtable.FindOp{Key: key}
					default:
						return hashtable.RemoveOp{Key: key}
					}
				},
				Elastic: &harness.ElasticPlan{
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
				},
			},
			model: model,
			rank:  insertsLast,
			reshard: func(th *memsim.Thread, e *shard.Elastic, i, perThread int) {
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
		}, nil
	case "avl":
		boot := env.Boot()
		tree := avl.New(boot)
		model := setops.Model{}
		pre := rand.New(rand.NewPCG(seed, 0xAB1))
		for i := 0; i < 24; i++ {
			k := pre.Uint64N(48)
			tree.Insert(boot, k)
			model[k] = true
		}
		return &fuzzScenario{
			inst: harness.Instance{
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
			},
			model: model,
			rank:  setops.Rank,
		}, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
}

// minimizedSpanTrace reduces the flight recorder's events to the last few
// complete operation spans — the causal neighborhood of a failure — one
// line per span.
func minimizedSpanTrace(col *trace.Collector, n int) string {
	spans := trace.BuildSpans(col.Events())
	if len(spans) == 0 {
		return ""
	}
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

// artifact renders the witness recording (arrival order) plus the flight
// dump as a byte-comparable string: deterministic replays must reproduce it
// exactly.
func artifact(rec *witness.Recorder, flight *trace.Collector) string {
	var b strings.Builder
	for _, e := range rec.Entries() {
		fmt.Fprintf(&b, "%d %d %s = %d\n", e.Stamp, e.Intra, opString(e.Op), e.Result)
	}
	if flight != nil {
		b.WriteString("-- flight --\n")
		b.WriteString(flight.FlightDump(0))
	}
	return b.String()
}

// fuzzOne checks one (engine, scenario, seed) combination and returns the
// run's witness/flight artifact. On a witness violation the error carries
// the flight-recorder dump (via witness.CheckDump) and, in explore mode, a
// minimized span trace of the failure's causal neighborhood.
func fuzzOne(cfg fuzzCfg, engineName, scenario string, seed uint64) (string, error) {
	cost := memsim.DefaultCostParams()
	cost.JitterPct = cfg.jitterPct
	det := memsim.DetConfig{Threads: cfg.threads, Cost: cost, Seed: seed}
	if cfg.exploring() {
		det.Explore = cfg.explore
		det.Explore.Seed = seed
	}
	env := memsim.NewDet(det)
	rec := &witness.Recorder{}

	sc, err := buildScenario(scenario, env, seed)
	if err != nil {
		return "", err
	}

	// A zero Config, deliberately not normalized (normalizing turns on
	// HTM noise): no noise and the engines' default budgets.
	eng, err := harness.BuildEngine(engineName, env, sc.inst, harness.Config{})
	if err != nil {
		return "", err
	}
	elastic, _ := eng.(*shard.Elastic)
	we, ok := eng.(engine.WitnessedEngine)
	if !ok {
		return "", fmt.Errorf("engine %s is not witnessable", engineName)
	}
	we.SetWitness(rec.Func())
	// Always-on flight recorder: per-thread rings of the most recent
	// lifecycle events, dumped with the error when the checker fails.
	var flight *trace.Collector
	if cfg.flight > 0 {
		if te, ok := eng.(core.TracedEngine); ok {
			flight = &trace.Collector{Limit: cfg.flight}
			te.SetTracer(flight)
		}
	}
	env.Run(func(th *memsim.Thread) {
		rng := rand.New(rand.NewPCG(uint64(th.ID()), seed))
		for i := 0; i < cfg.perThread; i++ {
			// Elastic scenarios reshape the topology from thread 0
			// mid-schedule so splits and merges race witnessed traffic.
			if th.ID() == 0 && elastic != nil && sc.reshard != nil {
				sc.reshard(th, elastic, i, cfg.perThread)
			}
			eng.Execute(th, sc.inst.NextOp(rng))
		}
	})
	var fr witness.FlightSource
	if flight != nil {
		fr = flight
	}
	err = witness.CheckDump(rec, sc.model, cfg.threads*cfg.perThread, sc.rank, fr, 120)
	if err != nil && flight != nil && cfg.exploring() {
		if mt := minimizedSpanTrace(flight, 12); mt != "" {
			err = fmt.Errorf("%w\nminimized span trace (last operations):\n%s", err, mt)
		}
	}
	return artifact(rec, flight), err
}
