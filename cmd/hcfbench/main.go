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
// The open-loop figure has its own pipeline — offered-load sweep with
// coordinated-omission-safe sojourn tails, SLO verdicts, JSONL output and
// a p99 regression gate:
//
//	hcfbench -fig openloop                            # table to stdout
//	hcfbench -fig openloop -json                      # JSONL to stdout
//	hcfbench -fig openloop -out bench/OPENLOOP_sweep.jsonl
//	hcfbench -fig openloop -openloop-baseline bench/OPENLOOP_sweep.jsonl
//	hcfbench -fig openloop -serve 127.0.0.1:7070      # live /debug endpoints
//
// So does the native backend's wall-clock sweep — the direct-atomics
// HCF engine against sync.Mutex, sync.RWMutex and sync.Map:
//
//	hcfbench -fig native                              # table to stdout
//	hcfbench -fig native -out bench/BENCH_native.json # record for the CI gate
//	hcfbench -fig native -native-baseline bench/BENCH_native.json
//	hcfbench -fig native -threads 1,2,4,8 -native-dur 300
//
// And the KV storage engine's durability sweep — open-loop Zipfian
// get/put/delete mixes against hcf.NewKV with fsync-backed group commit
// and a crash-recovery replay check per point:
//
//	hcfbench -fig kv                                  # table to stdout
//	hcfbench -fig kv -out bench/KV_sweep.jsonl        # record for the CI gate
//	hcfbench -fig kv -kv-baseline bench/KV_sweep.jsonl
//	hcfbench -fig kv -threads 8 -kv-dur 100           # quick smoke
//
// And the elastic-sharding hot-shard healing figure — the same drifting
// 90%-skewed workload run with the topology frozen and with the
// rebalancer splitting hot shards online:
//
//	hcfbench -fig elastic                             # table to stdout
//	hcfbench -fig elastic -out bench/ELASTIC_sweep.jsonl
//	hcfbench -fig elastic -elastic-gate 0.8           # CI: healed >= 0.8x balanced
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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

func run(args []string) error {
	fs := flag.NewFlagSet("hcfbench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available figures and exit")
		realFlg  = fs.Bool("real", false, "run the figure's scenario on the real-concurrency backend (wall clock; meaningful on multicore hosts)")
		realOps  = fs.Int("real-ops", 2000, "operations per thread in -real mode")
		figID    = fs.String("fig", "", "figure id to reproduce, or 'all'")
		horizon  = fs.Int64("horizon", 200_000, "virtual cycles per measurement")
		seed     = fs.Uint64("seed", 1, "workload seed")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables")
		jsonFlg  = fs.Bool("json", false, "emit JSON Lines (one record per scenario/engine/threads cell) instead of tables")
		threads  = fs.String("threads", "", "comma-separated thread counts (override)")
		engs     = fs.String("engines", "", "comma-separated engine names (override)")
		parallel = fs.Int("parallel", 0, "max concurrently measured sweep points (0 = all host cores, 1 = serial)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof allocation profile to this file")
		benchFlg = fs.Bool("bench", false, "measure host throughput of the reference sweep and emit a BENCH_sim.json record")
		benchOut = fs.String("bench-out", "", "write the -bench record to this file instead of stdout")
		baseline = fs.String("baseline", "", "compare the -bench record against this BENCH_sim.json; exit non-zero on >25% host-throughput regression")
		rates    = fs.String("rates", "", "comma-separated offered loads in ops/Mcycle (-fig openloop only; default 2000,8000,20000,45000,90000)")
		outPath  = fs.String("out", "", "write the -fig openloop sweep as JSONL to this file (in addition to stdout rendering)")
		olBase   = fs.String("openloop-baseline", "", "compare the -fig openloop sweep against this JSONL baseline; exit non-zero if any matching point's sojourn p99 regressed by more than 25%")
		serveAt  = fs.String("serve", "", "host:port for live introspection endpoints during the -fig openloop run (forces serial point order)")
		natDur   = fs.Int("native-dur", 150, "measured window per point in milliseconds (-fig native only)")
		natBase  = fs.String("native-baseline", "", "compare the -fig native sweep against this BENCH_native.json; exit non-zero when any point regresses more than 2x below the median fresh/baseline ratio")
		kvDur    = fs.Int64("kv-dur", 400, "arrival window per point in milliseconds (-fig kv only)")
		kvBase   = fs.String("kv-baseline", "", "compare the -fig kv sweep against this JSONL baseline; median-normalized sojourn-p99 gate plus an unconditional recovery-replay check")
		elGate   = fs.Float64("elastic-gate", 0, "-fig elastic only: fail unless the healed run's post-phase throughput is at least this fraction of the balanced run's (0 = report, don't gate)")
		elRate   = fs.Float64("elastic-rate", 0, "-fig elastic only: offered load in ops/Mcycle (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := startCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	defer stopProf()
	defer func() {
		if err := writeMemProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "hcfbench: memprofile:", err)
		}
	}()
	if *jsonFlg && *realFlg {
		return fmt.Errorf("-json is not supported with -real")
	}
	if *engs != "" {
		if err := harness.ValidateEngineNames(strings.Split(*engs, ",")); err != nil {
			return err
		}
	}
	if *benchFlg {
		fig := *figID
		if fig == "" {
			fig = "2c" // the reference sweep: hashtable 40% finds, all engines
		}
		return runBench(fig, *threads, *engs, *horizon, *seed, *parallel, *benchOut, *baseline)
	}
	if *list {
		for _, f := range harness.Figures() {
			fmt.Printf("%-14s %-18s %s\n", f.ID, f.Ref, f.Title)
		}
		return nil
	}
	if *figID == "" {
		fs.Usage()
		return fmt.Errorf("missing -fig (or -list)")
	}
	if *figID == "native" {
		return runNative(*threads, *natDur, *jsonFlg, *outPath, *natBase)
	}
	if *figID == "kv" {
		return runKV(*threads, *kvDur, *jsonFlg, *outPath, *kvBase)
	}
	if *figID == "openloop" && !*realFlg {
		return runOpenLoop(*threads, *engs, *rates, *horizon, *seed, *parallel,
			*csv, *jsonFlg, *outPath, *olBase, *serveAt)
	}
	if *figID == "elastic" && !*realFlg {
		// The elastic figure has its own (longer) default horizon: only
		// forward -horizon when the user actually set it.
		h := int64(0)
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "horizon" {
				h = *horizon
			}
		})
		return runElastic(*threads, h, *seed, *parallel, *jsonFlg, *outPath, *elRate, *elGate)
	}
	var figs []harness.Figure
	if *figID == "all" {
		figs = harness.Figures()
	} else {
		f, err := harness.FigureByID(*figID)
		if err != nil {
			return err
		}
		figs = []harness.Figure{f}
	}
	cfg := harness.Config{Horizon: *horizon, Seed: *seed, Parallel: *parallel}
	for i := range figs {
		if *threads != "" {
			ts, err := parseInts(*threads)
			if err != nil {
				return err
			}
			figs[i].Threads = ts
		}
		if *engs != "" {
			figs[i].Engines = strings.Split(*engs, ",")
		}
		if *realFlg {
			fmt.Printf("== %s on the real backend (wall clock, %d ops/thread)\n",
				figs[i].ID, *realOps)
			for _, t := range figs[i].Threads {
				for _, e := range figs[i].Engines {
					r, err := harness.RunPointReal(figs[i].Scenario, e, t, *realOps, cfg)
					if err != nil {
						return err
					}
					status := ""
					if r.InvariantViolation != "" {
						status = "  !! " + r.InvariantViolation
					}
					fmt.Printf("threads=%-3d %-8s %10.1f ops/ms (%v)%s\n",
						t, e, r.Throughput, r.Elapsed.Round(time.Millisecond), status)
				}
			}
			continue
		}
		results, err := harness.RunFigure(figs[i], cfg)
		if err != nil {
			return err
		}
		switch {
		case *jsonFlg:
			out, err := harness.FormatJSONL(results)
			if err != nil {
				return err
			}
			fmt.Print(out)
		case *csv:
			fmt.Print(harness.FormatCSV(results))
		default:
			fmt.Println(harness.FormatFigure(figs[i], results))
		}
	}
	return nil
}

// benchRecord is the machine-readable host-throughput record emitted by
// -bench (BENCH_sim.json). Throughput is simulated work done per host
// second, so the number is meaningful across horizon choices; regressions
// are judged on sim_mcycles_per_host_sec.
type benchRecord struct {
	Kind       string   `json:"kind"` // "hcf-host-bench"
	Figure     string   `json:"figure"`
	Threads    []int    `json:"threads"`
	Engines    []string `json:"engines"`
	Horizon    int64    `json:"horizon"`
	Seed       uint64   `json:"seed"`
	Parallel   int      `json:"parallel"`
	GoMaxProcs int      `json:"gomaxprocs"`
	WallSec    float64  `json:"wall_seconds"`
	Points     int      `json:"points"`
	TotalOps   uint64   `json:"total_ops"`
	// SimMcyclesPerHostSec is the headline metric: simulated megacycles
	// executed per second of host wall-clock time.
	SimMcyclesPerHostSec float64 `json:"sim_mcycles_per_host_sec"`
	OpsPerHostSec        float64 `json:"ops_per_host_sec"`
	// Baseline is filled when -baseline is given: the reference record's
	// throughput and the measured speedup over it.
	Baseline *benchBaseline `json:"baseline,omitempty"`
}

type benchBaseline struct {
	Path                 string  `json:"path"`
	SimMcyclesPerHostSec float64 `json:"sim_mcycles_per_host_sec"`
	Speedup              float64 `json:"speedup"`
}

// runBench measures the host wall-clock cost of one reference sweep and
// emits a benchRecord, optionally enforcing a regression threshold against
// a checked-in baseline record.
func runBench(figID, threadsCSV, engsCSV string, horizon int64, seed uint64, parallel int, outPath, basePath string) error {
	fig, err := harness.FigureByID(figID)
	if err != nil {
		return err
	}
	if threadsCSV != "" {
		if fig.Threads, err = parseInts(threadsCSV); err != nil {
			return err
		}
	}
	if engsCSV != "" {
		fig.Engines = strings.Split(engsCSV, ",")
	}
	cfg := harness.Config{Horizon: horizon, Seed: seed, Parallel: parallel}
	start := time.Now()
	results, err := harness.RunFigure(fig, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	rec := benchRecord{
		Kind:       "hcf-host-bench",
		Figure:     fig.ID,
		Threads:    fig.Threads,
		Engines:    fig.Engines,
		Horizon:    horizon,
		Seed:       seed,
		Parallel:   parallel,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WallSec:    wall,
		Points:     len(results),
	}
	var simCycles int64
	for _, r := range results {
		rec.TotalOps += r.Ops
		simCycles += r.Cycles
	}
	if wall > 0 {
		rec.SimMcyclesPerHostSec = float64(simCycles) / 1e6 / wall
		rec.OpsPerHostSec = float64(rec.TotalOps) / wall
	}
	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		var base benchRecord
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", basePath, err)
		}
		if base.SimMcyclesPerHostSec > 0 {
			rec.Baseline = &benchBaseline{
				Path:                 basePath,
				SimMcyclesPerHostSec: base.SimMcyclesPerHostSec,
				Speedup:              rec.SimMcyclesPerHostSec / base.SimMcyclesPerHostSec,
			}
		}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("bench: %s in %.2fs (%.1f sim Mcycles/s) -> %s\n",
			fig.ID, wall, rec.SimMcyclesPerHostSec, outPath)
	} else {
		fmt.Print(string(out))
	}
	if rec.Baseline != nil {
		fmt.Fprintf(os.Stderr, "bench: %.2fx the baseline's host throughput (%s)\n",
			rec.Baseline.Speedup, basePath)
		if rec.Baseline.Speedup < 0.75 {
			return fmt.Errorf("host-throughput regression: %.1f sim Mcycles/s is %.0f%% of baseline %.1f",
				rec.SimMcyclesPerHostSec, 100*rec.Baseline.Speedup, rec.Baseline.SimMcyclesPerHostSec)
		}
	}
	return nil
}

// runNative is the -fig native pipeline: a wall-clock sweep of the
// native (direct-atomics) HCF backend against sync.Mutex, sync.RWMutex
// and sync.Map across goroutine counts and read/write mixes. With -out
// the record (bench/BENCH_native.json) is written for the CI smoke gate;
// with -native-baseline the fresh sweep is compared against a checked-in
// record using median-normalized point ratios, so the gate survives the
// baseline having been recorded on different hardware.
func runNative(threadsCSV string, durMS int, jsonFlg bool, outPath, basePath string) error {
	opts := harness.NativeOptions{Duration: time.Duration(durMS) * time.Millisecond}
	if threadsCSV != "" {
		gs, err := parseInts(threadsCSV)
		if err != nil {
			return err
		}
		opts.Goroutines = gs
	}
	rep, err := harness.RunNativeSweep(opts)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("native: %d points in %.1fs -> %s\n", len(rep.Points), rep.WallSec, outPath)
	}
	if jsonFlg {
		fmt.Print(string(out))
	} else {
		fmt.Print(harness.FormatNativeReport(rep))
	}
	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			return fmt.Errorf("native baseline: %w", err)
		}
		base, err := harness.ParseNativeReport(data)
		if err != nil {
			return fmt.Errorf("native baseline %s: %w", basePath, err)
		}
		matched, err := harness.CompareNativeBaseline(rep, base, 2)
		if err != nil {
			return fmt.Errorf("native baseline %s: %w", basePath, err)
		}
		fmt.Fprintf(os.Stderr, "native: %d points within 2x of the median ratio vs %s\n", matched, basePath)
	}
	return nil
}

// runKV is the -fig kv pipeline: an open-loop sweep of the HCF-backed
// KV engine (hcf.NewKV) across simulated-user populations and get/put/
// delete mixes, with fsync-backed group commit, sojourn tails, SLO
// verdicts and an inline crash-recovery replay check per point. With
// -out the JSONL record (bench/KV_sweep.jsonl) is written for the CI
// smoke gate; with -kv-baseline the fresh sweep is compared against a
// checked-in record using median-normalized p99 ratios (hardware- and
// disk-speed-tolerant), and any point whose recovery replay diverged
// from its witness dump fails unconditionally.
func runKV(threadsCSV string, durMS int64, jsonFlg bool, outPath, basePath string) error {
	opts := harness.KVSweepOptions{DurationMS: durMS}
	if threadsCSV != "" {
		gs, err := parseInts(threadsCSV)
		if err != nil {
			return err
		}
		if len(gs) != 1 {
			return fmt.Errorf("-fig kv takes a single -threads value (worker count), got %q", threadsCSV)
		}
		opts.Workers = gs[0]
	}
	rep, err := harness.RunKVSweep(opts)
	if err != nil {
		return err
	}
	out, err := rep.JSONL()
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("kv: %d points -> %s\n", len(rep.Points), outPath)
	}
	if jsonFlg {
		fmt.Print(string(out))
	} else {
		fmt.Print(rep.Text())
	}
	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			return fmt.Errorf("kv baseline: %w", err)
		}
		base, err := harness.ParseKVJSONL(data)
		if err != nil {
			return fmt.Errorf("kv baseline %s: %w", basePath, err)
		}
		matched, err := harness.CompareKVBaseline(rep, base, 2)
		if err != nil {
			return fmt.Errorf("kv baseline %s: %w", basePath, err)
		}
		fmt.Fprintf(os.Stderr, "kv: %d points within 2x of the median p99 ratio vs %s, recovery replay clean\n", matched, basePath)
	}
	return nil
}

// openLoopP99Ratio is the regression gate for -openloop-baseline: a
// matching point fails if its sojourn p99 exceeds 1.25x the baseline's.
const openLoopP99Ratio = 1.25

// runOpenLoop is the -fig openloop pipeline: an offered-load sweep with
// coordinated-omission-safe sojourn latency, optional live introspection
// endpoints during the run, JSONL output for the checked-in baseline, and
// a p99 regression gate against a prior sweep.
func runOpenLoop(threadsCSV, engsCSV, ratesCSV string, horizon int64, seed uint64, parallel int, csv, jsonFlg bool, outPath, basePath, serveAt string) error {
	threads := 36
	if threadsCSV != "" {
		ts, err := parseInts(threadsCSV)
		if err != nil {
			return err
		}
		if len(ts) != 1 {
			return fmt.Errorf("-fig openloop takes exactly one thread count, got %v", ts)
		}
		threads = ts[0]
	}
	engines := harness.OpenLoopDefaultEngines
	if engsCSV != "" {
		engines = strings.Split(engsCSV, ",")
	}
	rates := harness.OpenLoopDefaultRates
	if ratesCSV != "" {
		rates = rates[:0:0]
		for _, p := range strings.Split(ratesCSV, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || r <= 0 {
				return fmt.Errorf("bad rate %q", p)
			}
			rates = append(rates, r)
		}
	}
	sc := harness.OpenLoopScenario()
	cfg := harness.Config{Horizon: horizon, Seed: seed, Parallel: parallel}
	ol := harness.OpenLoopConfig{Interval: max(horizon/20, 1)}

	var rep *harness.OpenLoopReport
	if serveAt != "" {
		// Live introspection: points run serially so the single observer
		// always describes the point in flight. Results are bit-identical
		// to the unserved sweep.
		srv := serve.New()
		addr, err := srv.Start(serveAt)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "hcfbench: live introspection at http://%s/debug\n", addr)
		rep = &harness.OpenLoopReport{
			Figure: "openloop", Scenario: sc.Name, Threads: threads,
			Seed: cfg.Seed, Horizon: cfg.Horizon, Interval: ol.Interval, Rates: rates,
		}
		for _, r := range rates {
			for _, name := range engines {
				olp := ol
				olp.Rate = r
				olp.Observer = srv
				p, _, err := harness.RunPointOpenLoop(sc, name, threads, cfg, olp)
				if err != nil {
					return err
				}
				rep.Points = append(rep.Points, p)
			}
		}
	} else {
		var err error
		rep, err = harness.RunOpenLoopSweep(sc, engines, rates, threads, cfg, ol)
		if err != nil {
			return err
		}
	}

	switch {
	case jsonFlg:
		data, err := rep.JSONL()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
	case csv:
		return fmt.Errorf("-csv is not supported with -fig openloop (use -json for JSONL)")
	default:
		fmt.Print(rep.Text())
	}
	if outPath != "" {
		data, err := rep.JSONL()
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hcfbench: wrote %d open-loop points to %s\n", len(rep.Points), outPath)
	}
	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			return fmt.Errorf("openloop-baseline: %w", err)
		}
		base, err := harness.ParseOpenLoopJSONL(data)
		if err != nil {
			return fmt.Errorf("openloop-baseline %s: %w", basePath, err)
		}
		if err := harness.CompareOpenLoopBaseline(rep, base, openLoopP99Ratio); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hcfbench: open-loop sojourn p99 within %.0f%% of baseline %s\n",
			100*(openLoopP99Ratio-1), basePath)
	}
	return nil
}

// runElastic is the -fig elastic pipeline: the three-mode hot-shard
// healing comparison (balanced / static skew / rebalanced), rendered as
// a table or JSONL (bench/ELASTIC_sweep.jsonl) and optionally gated on
// the healing story itself (-elastic-gate).
func runElastic(threadsCSV string, horizon int64, seed uint64, parallel int, jsonFlg bool, outPath string, rate, gate float64) error {
	threads := 36
	if threadsCSV != "" {
		ts, err := parseInts(threadsCSV)
		if err != nil {
			return err
		}
		if len(ts) != 1 {
			return fmt.Errorf("-fig elastic takes exactly one thread count, got %v", ts)
		}
		threads = ts[0]
	}
	cfg := harness.Config{Horizon: horizon, Seed: seed, Parallel: parallel}
	rep, err := harness.RunElasticFigure(threads, cfg, harness.ElasticRunConfig{Rate: rate, Gate: gate})
	if err != nil {
		return err
	}
	if jsonFlg {
		data, err := rep.JSONL()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
	} else {
		fmt.Print(rep.Text())
	}
	if outPath != "" {
		data, err := rep.JSONL()
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hcfbench: wrote %d elastic points to %s\n", len(rep.Points), outPath)
	}
	if gate > 0 {
		if err := harness.CheckElasticGate(rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hcfbench: elastic gate ok (post-heal throughput >= %.2fx balanced, verdict recovered)\n", rep.Gate)
	}
	return nil
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
