// Command hcfbench regenerates the paper's figures on the deterministic
// simulator.
//
// Usage:
//
//	hcfbench -list                 # show all reproducible experiments
//	hcfbench -fig 2c               # reproduce one figure
//	hcfbench -fig all              # reproduce everything
//	hcfbench -fig 5a -csv          # emit CSV for external plotting
//	hcfbench -fig 5a -json         # emit JSON Lines (one record per cell)
//	hcfbench -fig 2a -threads 1,8,36 -horizon 500000 -seed 7
//
// Five runs have their own pipelines, each producing a record checked in
// under bench/:
//
//   - -bench: host throughput of a simulated sweep (default figure 2c),
//     bench/BENCH_sim.json;
//   - -fig native: the native (direct-atomics) HCF backend against
//     sync.Mutex, sync.RWMutex and sync.Map on the wall clock,
//     bench/BENCH_native.json;
//   - -fig kv: open-loop Zipfian get/put/delete mixes against the KV
//     engine with fsync-backed group commit and a crash-recovery replay
//     check per point, bench/KV_sweep.jsonl;
//   - -fig openloop: an offered-load sweep with coordinated-omission-safe
//     sojourn tails and SLO verdicts, bench/OPENLOOP_sweep.jsonl;
//   - -fig elastic: the same drifting 90%-skewed workload with the
//     topology frozen and with the rebalancer splitting hot shards
//     online, bench/ELASTIC_sweep.jsonl.
//
// All five end in the same steps: -out writes the record; the table is
// printed, or the record itself with -json; the record's own check runs
// (invariant violations, the KV recovery replay, the elastic healing
// story) and fails the run whether or not a baseline is given; and
// -baseline compares the record against a baseline record with the
// figure's fixed gate (all but elastic, whose record is compared with
// cmp instead):
//
//	hcfbench -bench -threads 1,4,12,36 -horizon 50000 -baseline bench/BENCH_sim.json
//	hcfbench -fig native -dur 80 -out BENCH_native.json -baseline bench/BENCH_native.json
//	hcfbench -fig kv -dur 200 -baseline bench/KV_sweep.jsonl
//	hcfbench -fig openloop -json -baseline bench/OPENLOOP_sweep.jsonl
//	hcfbench -fig openloop -serve 127.0.0.1:7070      # live /debug endpoints
//	hcfbench -fig elastic -out ELASTIC_sweep.jsonl
//
// A flag the chosen run does not use is an error, reported before
// anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
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
	list, real, csv, json, bench bool
	fig, threads, engines        string
	rates, serve, out, baseline  string
	cpuProf, memProf             string
	horizon                      int64
	seed                         uint64
	parallel, realOps, dur       int
	// set records which flags were given explicitly.
	set map[string]bool
}

// modeFlags lists, per run mode, the flags it reads besides -fig and the
// profiling flags; anything else given is rejected before the run.
var modeFlags = map[string]string{
	"bench":    "bench threads engines horizon seed parallel json out baseline",
	"native":   "threads dur json out baseline",
	"kv":       "threads dur json out baseline",
	"openloop": "threads engines horizon seed parallel json rates serve out baseline",
	"elastic":  "threads horizon seed parallel json out",
	"real":     "real threads engines seed real-ops",
	"figure":   "threads engines horizon seed parallel csv json",
}

// mode picks the pipeline the options select.
func (o *options) mode() string {
	switch {
	case o.bench:
		return "bench"
	case o.fig == "native" || o.fig == "kv":
		return o.fig
	case o.real:
		return "real"
	case o.fig == "openloop" || o.fig == "elastic":
		return o.fig
	}
	return "figure"
}

// checkFlags rejects every explicitly set flag the selected mode ignores.
func (o *options) checkFlags() error {
	allowed := strings.Fields("fig cpuprofile memprofile " + modeFlags[o.mode()])
	for name := range o.set {
		if !slices.Contains(allowed, name) {
			return fmt.Errorf("-%s does not apply to %s runs", name, o.mode())
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
	fs.BoolVar(&o.real, "real", false, "run the figure's scenario on the real-concurrency backend (wall clock; meaningful on multicore hosts)")
	fs.IntVar(&o.realOps, "real-ops", 2000, "operations per thread in -real mode")
	fs.StringVar(&o.fig, "fig", "", "figure id to reproduce, or 'all'")
	fs.Int64Var(&o.horizon, "horizon", 200_000, "virtual cycles per measurement (-fig elastic defaults to its own when unset)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of tables")
	fs.BoolVar(&o.json, "json", false, "emit JSON Lines (one record per scenario/engine/threads cell), or the figure's record, instead of tables")
	fs.StringVar(&o.threads, "threads", "", "comma-separated thread counts (override; one count for -fig kv, openloop and elastic)")
	fs.StringVar(&o.engines, "engines", "", "comma-separated engine names (override)")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrently measured sweep points (0 = all host cores, 1 = serial)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a pprof allocation profile to this file")
	fs.BoolVar(&o.bench, "bench", false, "measure host throughput of a figure sweep (default 2c) and emit a BENCH_sim.json record")
	fs.StringVar(&o.rates, "rates", "", "comma-separated offered loads in ops/Mcycle (-fig openloop only; default 2000,8000,20000,45000,90000)")
	fs.StringVar(&o.serve, "serve", "", "host:port for live introspection endpoints during the -fig openloop run (forces serial point order)")
	fs.IntVar(&o.dur, "dur", 0, "measured window per point in milliseconds (-fig native, default 150; -fig kv, default 400)")
	fs.StringVar(&o.out, "out", "", "write the record to this file (-bench, -fig native, kv, openloop, elastic)")
	fs.StringVar(&o.baseline, "baseline", "", "compare the record against this baseline record with the figure's fixed gate; exit non-zero on a regression (-bench, -fig native, kv, openloop)")
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
	if o.fig == "" && !o.bench {
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
	}
	return runFigures(o)
}

// runFigures renders registered figures as tables, CSV or JSON Lines
// (or measures them on the real backend with -real), then fails if any
// point violated its scenario invariant.
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
		if o.real {
			fmt.Printf("== %s on the real backend (wall clock, %d ops/thread)\n",
				figs[i].ID, o.realOps)
			for _, t := range figs[i].Threads {
				for _, e := range figs[i].Engines {
					r, err := harness.RunPointReal(figs[i].Scenario, e, t, o.realOps, cfg)
					if err != nil {
						return err
					}
					status := ""
					if r.InvariantViolation != "" {
						status = "  !! " + r.InvariantViolation
					}
					fmt.Printf("threads=%-3d %-8s %10.1f ops/ms (%v)%s\n",
						t, e, r.Throughput, r.Elapsed.Round(time.Millisecond), status)
					all = append(all, harness.Result{Scenario: r.Scenario, Engine: e, Threads: t,
						InvariantViolation: r.InvariantViolation})
				}
			}
			continue
		}
		results, err := harness.RunFigure(figs[i], cfg)
		if err != nil {
			return err
		}
		all = append(all, results...)
		switch {
		case o.json:
			out, err := harness.FormatJSONL(results)
			if err != nil {
				return err
			}
			fmt.Print(out)
		case o.csv:
			fmt.Print(harness.FormatCSV(results))
		default:
			fmt.Println(harness.FormatFigure(figs[i], results))
		}
	}
	if err := harness.CheckResults(all); err != nil {
		return fmt.Errorf("invariant check failed:\n  %w", err)
	}
	return nil
}

// finish is the tail every record-producing run ends in: write -out,
// render the table (or the record with -json), run the record's own
// check, then compare against -baseline.
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
	}
	if o.json {
		os.Stdout.Write(data)
	} else {
		fmt.Print(rec.Text())
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
	id := o.fig
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
	ol := harness.OpenLoopConfig{Interval: max(o.horizon/20, 1)}
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
	rep, err := harness.RunElasticFigure(threads, cfg, harness.ElasticRunConfig{})
	if err != nil {
		return err
	}
	return finish(rep, o)
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad thread count %q: %w", p, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("thread count must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}
