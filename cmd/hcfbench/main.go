// Command hcfbench regenerates the paper's figures on the deterministic
// simulator, and inspects single runs of it.
//
// Usage:
//
//	hcfbench -list                 # show all reproducible experiments
//	hcfbench -fig 2c               # reproduce one figure
//	hcfbench -fig all              # reproduce everything (= results_figures.txt)
//	hcfbench -fig 5a -csv          # emit CSV for external plotting
//	hcfbench -fig 5a -json         # emit JSON Lines (one record per cell)
//	hcfbench -fig 2a -threads 1,8,36 -horizon 500000 -seed 7
//
// Six runs have their own pipelines, each producing a record checked in
// under bench/:
//
//   - -fig bench[:id]: host throughput of a simulated sweep (default
//     figure 2c), bench/BENCH_sim.json;
//   - -fig native: the native (direct-atomics) HCF backend against
//     sync.Mutex, sync.RWMutex and sync.Map on the wall clock, each
//     cell the median ops/s of fixed-size rounds over seeded operation
//     streams drawn before the clock starts, bench/BENCH_native.json;
//   - -fig kv: open-loop Zipfian get/put/delete mixes against the KV
//     engine with fsync-backed group commit and a crash-recovery replay
//     check per point, bench/KV_sweep.jsonl;
//   - -fig openloop: an offered-load sweep with coordinated-omission-safe
//     sojourn tails and SLO verdicts, bench/OPENLOOP_sweep.jsonl;
//   - -fig elastic: the same drifting 90%-skewed workload with the
//     topology frozen and with the rebalancer splitting hot shards
//     online, bench/ELASTIC_sweep.jsonl;
//   - -fig autotune: the evidence-driven policy autotuner against every
//     static policy and the per-segment oracle on a drifting priority
//     queue, bench/AUTOTUNE_sweep.jsonl, with its decision journal in
//     bench/AUTOTUNE_sweep.journal.json.
//
// All six end in the same steps: -out writes the record (and, for
// autotune, its journal beside it: rec.jsonl gets rec.journal.json);
// the table is printed, or the record itself with -json; the record's
// own check runs (invariant violations, the KV recovery replay, the
// elastic healing story, the tuned run at >= 0.9x the paper's policy)
// and fails the run whether or not a baseline is given; and -baseline
// compares the record against a baseline record with the figure's fixed
// gate (all but elastic and autotune, whose records are compared with
// cmp instead):
//
//	hcfbench -fig bench -threads 1,4,12,36 -horizon 50000 -baseline bench/BENCH_sim.json
//	hcfbench -fig native -dur 80 -out BENCH_native.json -baseline bench/BENCH_native.json
//	hcfbench -fig kv -dur 200 -baseline bench/KV_sweep.jsonl
//	hcfbench -fig openloop -json -baseline bench/OPENLOOP_sweep.jsonl
//	hcfbench -fig openloop -serve 127.0.0.1:7070      # live /debug endpoints
//	hcfbench -fig elastic -out ELASTIC_sweep.jsonl
//	hcfbench -fig autotune -out AUTOTUNE_sweep.jsonl
//
// -fig explore[:name,...] is the explored-schedule witness sweep over
// every (or each named) witness-checked scenario, from -seed for -seeds
// seeds (see docs/TESTING.md). Each failure prints a one-line repro, the
// flight-recorder dump and a minimized span trace; the run then fails:
//
//	hcfbench -fig explore:hashtable,avl -seed 0 -seeds 200
//
// -fig point[:scenario] runs one configuration (default hashtable; one
// -engines name, default HCF; one -threads count, default 18) and
// reports it through one -probe: counters (the default: throughput, HTM
// abort taxonomy, lock, combining and memory statistics, and HCF's
// per-class phase breakdown), metrics (an interval series, one sample
// per twentieth of -horizon, plus latency percentiles per operation
// class and completion path, in virtual cycles) or trace (per-phase
// attempt outcomes with abort attribution, self vs helped completions,
// selection sizes, the hottest conflicting lines and an optional raw
// -timeline). The scenarios are hashtable,
// sharded, elastic (counters only: HCF-E with its rebalancer, reporting
// the ring topology and the tail of its decision journal), avl, pqueue,
// stack, deque and sortedlist. -format is text or json under every
// probe, csv or prom under metrics, and chrome (Chrome trace-event JSON
// for ui.perfetto.dev) under trace. -out writes the report instead of
// stdout; a report not written in full fails the run, and so does an
// invariant violation under every probe. -serve serves live during -fig
// openloop; under -fig point -probe metrics it serves the finished
// report until interrupted:
//
//	hcfbench -fig point:avl -find 0 -theta 0.9 -engines TLE -threads 36 -format json
//	hcfbench -fig point:elastic -hot 90 -threads 36 -decisions 5
//	hcfbench -fig point -probe metrics -format csv -out run.csv
//	hcfbench -fig point -probe metrics -trace-limit 512 -serve localhost:8080
//	hcfbench -fig point:pqueue -probe trace -engines TLE+FC -threads 12 -timeline 60
//	hcfbench -fig point -probe trace -format chrome -out trace.json
//
// A flag the chosen run does not use is an error, reported before
// anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"hcf/internal/harness"
	"hcf/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcfbench:", err)
		os.Exit(1)
	}
}

// startCPUProfile begins CPU profiling to path ("" = disabled) and returns a
// stop function.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile dumps an allocation profile to path ("" = disabled).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the final heap state
	return pprof.WriteHeapProfile(f)
}

// options holds the parsed command line.
type options struct {
	list, csv, json             bool
	fig, threads, engines       string
	rates, serve, out, baseline string
	cpuProf, memProf            string
	probe, format               string
	horizon                     int64
	seed                        uint64
	parallel, dur, seeds        int
	find, shards, cross, hot    int
	decisions, traceLimit       int
	timeline                    int
	theta                       float64
	// set records which flags were given explicitly.
	set map[string]bool
}

// modeFlags lists, per run mode, the flags it reads besides -fig and the
// profiling flags; anything else given is rejected before the run. A
// point run also reads its probe's and scenario's flags (pointFlags).
var modeFlags = map[string]string{
	"bench":    "threads engines horizon seed parallel json out baseline",
	"native":   "threads dur json out baseline",
	"kv":       "threads dur json out baseline",
	"openloop": "threads engines horizon seed parallel json rates serve out baseline",
	"elastic":  "threads horizon seed parallel json out",
	"autotune": "threads horizon seed json out",
	"explore":  "threads engines seed seeds parallel",
	"point":    "probe threads horizon seed format out",
	"figure":   "threads engines horizon seed parallel csv json",
}

// mode picks the pipeline the options select.
func (o *options) mode() string {
	name, _, hasArg := strings.Cut(o.fig, ":")
	switch name {
	case "bench", "explore", "point": // -fig mode[:argument]
		return name
	case "native", "kv", "openloop", "elastic", "autotune":
		if !hasArg {
			return name
		}
	}
	return "figure"
}

// checkFlags rejects every explicitly set flag the selected mode ignores.
func (o *options) checkFlags() error {
	mode := o.mode()
	flags, runs := modeFlags[mode], mode+" runs"
	if mode == "point" {
		extra, err := o.pointFlags()
		if err != nil {
			return err
		}
		flags += " " + extra
		runs = fmt.Sprintf("-fig point:%s -probe %s runs", o.pointScenario(), o.probe)
	}
	allowed := strings.Fields("fig cpuprofile memprofile " + flags)
	for name := range o.set {
		if !slices.Contains(allowed, name) {
			return fmt.Errorf("-%s does not apply to %s", name, runs)
		}
	}
	return nil
}

func (o *options) config() harness.Config {
	return harness.Config{Horizon: o.horizon, Seed: o.seed, Parallel: o.parallel}
}

// singleThreads parses -threads for pipelines that take one thread count.
func (o *options) singleThreads(def int) (int, error) {
	if o.threads == "" {
		return def, nil
	}
	ts, err := parseInts(o.threads)
	if err != nil {
		return 0, err
	}
	if len(ts) != 1 {
		return 0, fmt.Errorf("-fig %s takes exactly one thread count, got %v", o.fig, ts)
	}
	return ts[0], nil
}

// override applies -threads and -engines to a registered figure.
func (o *options) override(f *harness.Figure) error {
	if o.threads != "" {
		ts, err := parseInts(o.threads)
		if err != nil {
			return err
		}
		f.Threads = ts
	}
	if o.engines != "" {
		f.Engines = strings.Split(o.engines, ",")
	}
	return nil
}

// newFlagSet defines every command-line flag, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("hcfbench", flag.ContinueOnError)
	fs.BoolVar(&o.list, "list", false, "list available figures and exit")
	fs.StringVar(&o.fig, "fig", "", "figure id to reproduce, or 'all'; 'bench[:id]' for the host-throughput record of a figure sweep (default 2c); 'explore' or 'explore:name,...' for the explored-schedule witness sweep; 'point[:scenario]' for one run through one -probe (default hashtable)")
	fs.Int64Var(&o.horizon, "horizon", 200_000, "virtual cycles per measurement (-fig elastic, autotune and point:elastic default to their own when unset)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (-fig explore: the first seed)")
	fs.IntVar(&o.seeds, "seeds", 20, "number of seeds, from -seed (-fig explore only)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of tables")
	fs.BoolVar(&o.json, "json", false, "emit JSON Lines (one record per scenario/engine/threads cell), or the figure's record, instead of tables")
	fs.StringVar(&o.threads, "threads", "", "comma-separated thread counts (override; one count for -fig kv, openloop, elastic, autotune, explore and point, where the default is 18)")
	fs.StringVar(&o.engines, "engines", "", "comma-separated engine names (override; one name for -fig point, default HCF, not point:elastic, which always runs HCF-E)")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrently measured sweep points (0 = all host cores, 1 = serial)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a pprof allocation profile to this file")
	fs.StringVar(&o.rates, "rates", "", "comma-separated offered loads in ops/Mcycle (-fig openloop only; default 2000,8000,20000,45000,90000)")
	fs.StringVar(&o.serve, "serve", "", "host:port for the /debug introspection endpoints: live during the -fig openloop run (forces serial point order); under -fig point -probe metrics, the finished report until interrupted")
	fs.IntVar(&o.dur, "dur", 0, "wall-clock time per point in milliseconds: -fig native, each cell's budget for a warm-up round and measured rounds (default 150); -fig kv, the arrival window (default 400)")
	fs.StringVar(&o.out, "out", "", "write the record to this file (-fig bench, native, kv, openloop, elastic, autotune), or the -fig point report instead of stdout")
	fs.StringVar(&o.baseline, "baseline", "", "compare the record against this baseline record with the figure's fixed gate; exit non-zero on a regression (-fig bench, native, kv, openloop)")
	fs.StringVar(&o.probe, "probe", "counters", "-fig point probe: counters | metrics | trace")
	fs.StringVar(&o.format, "format", "text", "-fig point report format: text | json (every probe) | csv | prom (metrics) | chrome (trace)")
	fs.IntVar(&o.find, "find", 40, "find percentage (-fig point: hashtable, sharded, elastic, avl, sortedlist)")
	fs.IntVar(&o.shards, "shards", 4, "shard count (-fig point:sharded)")
	fs.IntVar(&o.cross, "cross", 0, "cross-shard scan percentage (-fig point:sharded)")
	fs.IntVar(&o.hot, "hot", 0, "percentage of keys skewed onto shard 0 (-fig point:sharded); drifting hot-set percentage (-fig point:elastic)")
	fs.IntVar(&o.decisions, "decisions", 8, "print the last N rebalancer decisions (-fig point:elastic)")
	fs.Float64Var(&o.theta, "theta", 0.9, "zipf skew in [0,1) (-fig point:avl)")
	fs.IntVar(&o.traceLimit, "trace-limit", 0, "flight-recorder ring size per thread (-fig point); 0 retains every event under -probe trace and attaches no recorder under -probe metrics, where trace health lands in the report and hot lines on the -serve endpoints")
	fs.IntVar(&o.timeline, "timeline", 0, "also print the first N raw events (-fig point -probe trace, text format)")
	return fs
}

func run(args []string) error {
	o := &options{set: map[string]bool{}}
	fs := newFlagSet(o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.list {
		for _, f := range harness.Figures() {
			fmt.Printf("%-14s %-18s %s\n", f.ID, f.Ref, f.Title)
		}
		return nil
	}
	if o.fig == "" {
		fs.Usage()
		return fmt.Errorf("missing -fig (or -list)")
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if err := o.checkFlags(); err != nil {
		return err
	}
	if o.engines != "" {
		if err := harness.ValidateEngineNames(strings.Split(o.engines, ",")); err != nil {
			return err
		}
	}
	stopProf, err := startCPUProfile(o.cpuProf)
	if err != nil {
		return err
	}
	defer stopProf()
	defer func() {
		if err := writeMemProfile(o.memProf); err != nil {
			fmt.Fprintln(os.Stderr, "hcfbench: memprofile:", err)
		}
	}()
	switch o.mode() {
	case "bench":
		return runBench(o)
	case "native":
		return runNative(o)
	case "kv":
		return runKV(o)
	case "openloop":
		return runOpenLoop(o)
	case "elastic":
		return runElastic(o)
	case "autotune":
		return runAutotune(o)
	case "explore":
		return runExplore(o)
	case "point":
		return runPoint(o)
	}
	return runFigures(o)
}

// runFigures renders registered figures as tables, CSV or JSON Lines,
// then fails if any point violated its scenario invariant.
func runFigures(o *options) error {
	var figs []harness.Figure
	if o.fig == "all" {
		figs = harness.Figures()
	} else {
		f, err := harness.FigureByID(o.fig)
		if err != nil {
			return err
		}
		figs = []harness.Figure{f}
	}
	cfg := o.config()
	var all []harness.Result
	for i := range figs {
		if err := o.override(&figs[i]); err != nil {
			return err
		}
		results, err := harness.RunFigure(figs[i], cfg)
		if err != nil {
			return err
		}
		all = append(all, results...)
		var out string
		switch {
		case o.json:
			if out, err = harness.FormatJSONL(results); err != nil {
				return err
			}
		case o.csv:
			out = harness.FormatCSV(results)
		default:
			out = harness.FormatFigure(figs[i], results) + "\n"
		}
		if err := printOut(out); err != nil {
			return err
		}
	}
	if err := harness.CheckResults(all); err != nil {
		return fmt.Errorf("invariant check failed:\n  %w", err)
	}
	return nil
}

// sidecarRecord is a record that keeps a second file beside its record
// file (the autotuner's decision journal): -out rec.jsonl also writes
// rec.<name>.json.
type sidecarRecord interface {
	Sidecar() (name string, data []byte, err error)
}

// finish is the tail every record-producing run ends in: write -out
// (and the record's sidecar beside it), render the table (or the record
// with -json), run the record's own check, then compare against
// -baseline.
func finish[R any, P interface {
	*R
	harness.Record
}](rec P, o *options) error {
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hcfbench: wrote %s\n", o.out)
		if sc, ok := any(rec).(sidecarRecord); ok {
			name, side, err := sc.Sidecar()
			if err != nil {
				return err
			}
			path := strings.TrimSuffix(o.out, filepath.Ext(o.out)) + "." + name + ".json"
			if err := os.WriteFile(path, side, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "hcfbench: wrote %s\n", path)
		}
	}
	out := rec.Text()
	if o.json {
		out = string(data)
	}
	if err := printOut(out); err != nil {
		return err
	}
	if err := rec.Check(); err != nil {
		return fmt.Errorf("%s check failed:\n  %w", o.mode(), err)
	}
	if o.baseline == "" {
		return nil
	}
	fresh, ok := any(rec).(harness.GatedRecord)
	if !ok {
		return fmt.Errorf("-baseline: %T has no baseline gate", rec)
	}
	if data, err = os.ReadFile(o.baseline); err != nil {
		return err
	}
	base := P(new(R))
	if err := base.Decode(data); err != nil {
		return fmt.Errorf("baseline %s: %w", o.baseline, err)
	}
	n, err := harness.CompareRecords(fresh, any(base).(harness.GatedRecord))
	if err != nil {
		return fmt.Errorf("baseline %s: %w", o.baseline, err)
	}
	g, _ := fresh.Baseline()
	fmt.Fprintf(os.Stderr, "hcfbench: %d points within %.2fx of baseline %s on %s\n",
		n, g.Tolerance, o.baseline, g.Metric)
	return nil
}

// runBench times one figure sweep (default: the 2c reference sweep) on
// the host clock.
func runBench(o *options) error {
	_, id, _ := strings.Cut(o.fig, ":")
	if id == "" {
		id = "2c" // the reference sweep: hashtable 40% finds, all engines
	}
	f, err := harness.FigureByID(id)
	if err != nil {
		return err
	}
	if err := o.override(&f); err != nil {
		return err
	}
	rep, err := harness.RunHostBench(f, o.config())
	if err != nil {
		return err
	}
	return finish(rep, o)
}

// runNative is the -fig native pipeline: a wall-clock sweep of the
// native (direct-atomics) HCF backend against sync.Mutex, sync.RWMutex
// and sync.Map across goroutine counts and read/write mixes.
func runNative(o *options) error {
	opts := harness.NativeOptions{Duration: time.Duration(o.dur) * time.Millisecond}
	if o.threads != "" {
		gs, err := parseInts(o.threads)
		if err != nil {
			return err
		}
		opts.Goroutines = gs
	}
	rep, err := harness.RunNativeSweep(opts)
	if err != nil {
		return err
	}
	return finish(rep, o)
}

// runKV is the -fig kv pipeline: an open-loop sweep of the HCF-backed
// KV engine (hcf.NewKV) across simulated-user populations and get/put/
// delete mixes, with fsync-backed group commit, sojourn tails, SLO
// verdicts and an inline crash-recovery replay check per point.
func runKV(o *options) error {
	workers, err := o.singleThreads(0)
	if err != nil {
		return err
	}
	rep, err := harness.RunKVSweep(harness.KVSweepOptions{Workers: workers, DurationMS: int64(o.dur)})
	if err != nil {
		return err
	}
	return finish(rep, o)
}

// runOpenLoop is the -fig openloop pipeline: an offered-load sweep with
// coordinated-omission-safe sojourn latency and optional live
// introspection endpoints during the run.
func runOpenLoop(o *options) error {
	threads, err := o.singleThreads(36)
	if err != nil {
		return err
	}
	engines := harness.OpenLoopDefaultEngines
	if o.engines != "" {
		engines = strings.Split(o.engines, ",")
	}
	rates := harness.OpenLoopDefaultRates
	if o.rates != "" {
		rates = rates[:0:0]
		for _, p := range strings.Split(o.rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || r <= 0 {
				return fmt.Errorf("bad rate %q", p)
			}
			rates = append(rates, r)
		}
	}
	var ol harness.OpenLoopConfig
	if o.serve != "" {
		// Live introspection: the sweep runs its points serially so the
		// observer always describes the point in flight. Results are
		// bit-identical to the unserved sweep.
		srv := serve.New()
		addr, err := srv.Start(o.serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "hcfbench: live introspection at http://%s/debug\n", addr)
		ol.Observer = srv
	}
	rep, err := harness.RunOpenLoopSweep(harness.OpenLoopScenario(), engines, rates, threads, o.config(), ol)
	if err != nil {
		return err
	}
	return finish(rep, o)
}

// runElastic is the -fig elastic pipeline: the three-mode hot-shard
// healing comparison (balanced / static skew / rebalanced), whose check
// is the healing story itself.
func runElastic(o *options) error {
	threads, err := o.singleThreads(36)
	if err != nil {
		return err
	}
	cfg := o.config()
	if !o.set["horizon"] {
		cfg.Horizon = 0 // the figure's own, longer default
	}
	rep, err := harness.RunElasticFigure(threads, cfg)
	if err != nil {
		return err
	}
	return finish(rep, o)
}

// runAutotune is the -fig autotune pipeline: the static policy grid, the
// tuned run and the per-segment oracle on the drifting priority queue,
// whose check is the tuned run's floor against the paper's policy.
func runAutotune(o *options) error {
	threads, err := o.singleThreads(36)
	if err != nil {
		return err
	}
	cfg := o.config()
	if !o.set["horizon"] {
		cfg.Horizon = 0 // the figure's own, longer default
	}
	rep, err := harness.RunAutotune(threads, cfg)
	if err != nil {
		return err
	}
	return finish(rep, o)
}

// exploreRegistry is the scenario registry -fig explore selects from.
var exploreRegistry = harness.ExploreScenarios

// runExplore is the -fig explore pipeline: the explored-schedule witness
// sweep, which fails at the end if any combination failed.
func runExplore(o *options) error {
	threads, err := o.singleThreads(harness.ExploreThreads)
	if err != nil {
		return err
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds must be positive, got %d", o.seeds)
	}
	var names, engines []string
	if _, list, ok := strings.Cut(o.fig, ":"); ok {
		names = strings.Split(list, ",")
	}
	if o.engines != "" {
		engines = strings.Split(o.engines, ",")
	}
	plan, err := harness.PlanExplore(exploreRegistry(), names, engines)
	if err != nil {
		return err
	}
	failed := 0
	harness.ExploreSweep(plan, threads, o.seed, o.seeds, o.parallel, func(c harness.ExploreCase, seed uint64, err error) {
		failed++
		fmt.Printf("FAIL engine=%s scenario=%s seed=%d\n", c.Engine, c.Name, seed)
		fmt.Printf("repro: %s\n", reproCommand(c.Name, c.Engine, seed, threads))
		fmt.Printf("%v\n", err)
	})
	if failed > 0 {
		return fmt.Errorf("%d of %d schedule×engine×workload combinations failed the witness", failed, o.seeds*len(plan))
	}
	fmt.Printf("ok: %d explored schedules×engine×workload combinations produced valid linearizations\n", o.seeds*len(plan))
	return nil
}

// reproCommand is the command that replays one explored combination.
func reproCommand(scenario, engine string, seed uint64, threads int) string {
	return fmt.Sprintf("go run ./cmd/hcfbench -fig explore:%s -engines %s -seed %d -seeds 1 -threads %d",
		scenario, engine, seed, threads)
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -threads count %q: %w", p, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("-threads must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}
