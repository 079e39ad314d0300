// Command perfbench is the repository benchmark. It drives the library
// through its public entry points from one process — the native seqlock
// backend (native.Map, native.PQueue), the KV engine (kvstore) and the
// deterministic simulator (harness) — checks every result, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
// per-layer metrics. Run it from the repository root through run.sh,
// which builds it first:
//
//	bash perfbench/run.sh --workload map-read90 --seed 1 --seconds 20 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workDir holds everything a run writes (KV data, span files), relative
// to the directory the benchmark runs in.
const workDir = ".perfbench"

// config is one invocation's settings plus the sizes the workloads use.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // work directory for KV data and span files
	sizes   sizes
	// injectFault corrupts one checked result per round; tests use it to
	// prove that a wrong result fails the run.
	injectFault bool
}

// sizes fixes each workload's inputs. fullSizes is what the command
// uses; tests shrink them.
type sizes struct {
	mapKeys, mapOps, mapSolo int
	pqPrefill, pqOps, pqSolo int
	kvKeys, kvOps, kvSolo    int
	simHorizon               int64
	simThreads               int
	// setups is how many times sim-paper times its set-up per round.
	setups int
}

var fullSizes = sizes{
	mapKeys: 1 << 20, mapOps: 4 << 20, mapSolo: 1 << 19,
	pqPrefill: 4096, pqOps: 1 << 20, pqSolo: 1 << 18,
	kvKeys: 1 << 16, kvOps: 240_000, kvSolo: 40_000,
	simHorizon: 200_000, simThreads: 36,
	setups: 9,
}

// workload is one named input set.
type workloadSpec struct {
	name string
	run  func(c *config) (*result, error)
}

var workloads = []workloadSpec{
	{"map-read90", runMap},
	{"pq-pairs", runPQ},
	{"kv-mixed", runKV},
	{"sim-paper", runSim},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: map-read90, pq-pairs, kv-mixed, sim-paper or all")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "seconds to measure for, per workload")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 || math.IsNaN(*seconds) {
		fmt.Fprintln(stderr, "perfbench: --seconds must not be negative")
		return 2
	}
	var selected []workloadSpec
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: workDir, sizes: fullSizes}
	return runWorkloads(c, selected, stdout, stderr)
}

// runWorkloads runs each selected workload, prints its report, and ends
// with the JSON result line. With more than one workload the line's
// metric names carry a "<workload>/" prefix.
func runWorkloads(c *config, selected []workloadSpec, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	start := time.Now()
	prov := provenance(c)
	line := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range selected {
		res, err := w.run(c)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		env := prov
		env.Workload = w.name
		env.DataFS, env.FlushPolicy = res.dataFS, res.flushPolicy
		env.Rounds, env.OpsPerRound, env.Attempted = res.rounds, res.opsPerRound, res.attempted
		res.print(stdout, env, c.trace)
		if c.trace {
			if err := res.writeSpans(stdout, c, w.name, env); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
		}
		line.Attempted += res.attempted
		line.Failed += res.failed
		if res.failed > 0 {
			line.Correct = false
		}
		defs := endToEnd
		if c.trace {
			defs = perLayer()
		}
		for _, d := range defs {
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + d.name
			}
			line.Metrics[key] = valueUnit{Value: res.metrics[d.name], Unit: d.unit}
		}
	}
	fmt.Fprintf(stdout, "# total wall time %.1f s\n", time.Since(start).Seconds())
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d checks failed\n", line.Failed, line.Attempted)
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// env is the provenance block printed with every result.
type env struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	TreeSHA256  string  `json:"tree_sha256"`
	DataFS      string  `json:"data_fs,omitempty"`
	FlushPolicy string  `json:"flush_policy,omitempty"`
	Rounds      int     `json:"rounds"`
	OpsPerRound int     `json:"ops_per_round"`
	Attempted   uint64  `json:"attempted"`
}

// commit is stamped by run.sh from git when the source is a checkout of
// the repository; treeHash identifies the source either way.
var commit = "unknown"

func provenance(c *config) env {
	return env{
		Seed:       c.seed,
		Seconds:    c.seconds,
		Trace:      c.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		TreeSHA256: treeHash("."),
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the library sees, reported on every
// workload with tracing off. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p99_us", "us"},
	{"live_heap_mb", "MB"},
}

// simScenarios are the three paper scenarios sim-paper sweeps, by the
// short name their metrics carry and the harness figure they come from.
var simScenarios = []struct{ short, figure string }{
	{"hashtable", "2c"},
	{"pqueue", "pqueue"},
	{"avl", "5a"},
}

// simRefEngines are the paper's reference engines and the metric-name
// form of each ('+' is not legal in a metric name).
var simRefEngines = []struct{ engine, short string }{
	{"Lock", "lock"}, {"TLE", "tle"}, {"FC", "fc"}, {"SCM", "scm"}, {"TLE+FC", "tle-fc"},
}

// perLayer lists the metrics of single layers, reported with --trace 1.
// A layer that a workload does not drive through the calls the benchmark
// times reads 0 there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"native.spec_read_hit_pct", "%"},
		{"native.spec_write_hit_pct", "%"},
		{"native.spec_abort_ratio", "ratio"},
		{"native.announce_pct", "%"},
		{"native.combining_degree", "ops"},
		{"native.helped_pct", "%"},
		{"native.parks_per_mop", "1/Mop"},
		{"solo_ns_per_op", "ns"},
		{"kv.writes_per_flush", "count"},
		{"kv.flushes_per_s", "1/s"},
		{"kv.flush_p50_us", "us"},
		{"kv.flush_p99_us", "us"},
		{"kv.appended_bytes_per_put", "B"},
		{"kv.recover_s", "s"},
	}
	for _, s := range simScenarios {
		p := "sim." + s.short
		defs = append(defs,
			metricDef{p + "_hcf_ops_per_mcycle", "ops/Mcycle"},
			metricDef{p + ".combining_degree", "ops"},
			metricDef{p + ".lock_acq_per_op", "count"},
			metricDef{p + ".phase_pct.private", "%"},
			metricDef{p + ".phase_pct.visible", "%"},
			metricDef{p + ".phase_pct.combining", "%"},
			metricDef{p + ".phase_pct.underlock", "%"},
			metricDef{p + ".htm_abort_ratio", "ratio"},
			metricDef{p + ".abort_conflict_pct", "%"},
			metricDef{p + ".abort_capacity_pct", "%"},
			metricDef{p + ".l1_miss_rate", "ratio"},
			metricDef{p + ".host_s", "s"},
		)
		for _, e := range simRefEngines {
			defs = append(defs, metricDef{p + "." + e.short + "_ops_per_mcycle", "ops/Mcycle"})
		}
	}
	return append(defs,
		metricDef{"sim_mcycles_per_s", "Mcycle/s"},
		metricDef{"op_p50_us", "us"},
		metricDef{"op_p999_us", "us"},
		metricDef{"trace.overhead_pct", "%"},
	)
}

// result is what one workload run produces.
type result struct {
	// metrics holds every end-to-end and per-layer value by name; names
	// a workload does not set read 0.
	metrics map[string]float64
	// report holds further named values printed in the human-readable
	// part only (the read/write split, error_rate, space_amp, ...).
	report []reportValue
	// attempted and failed count checked operations.
	attempted, failed uint64
	// problems describes the first failed checks that are not per-op.
	problems            []string
	rounds, opsPerRound int
	dataFS, flushPolicy string
	spans               *spanLog
}

type reportValue struct {
	name  string
	value float64
	unit  string
	note  string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail counts one failed check and keeps its description.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(name string, value float64, unit, note string) {
	r.report = append(r.report, reportValue{name, value, unit, note})
}

func (r *result) print(w io.Writer, e env, traced bool) {
	envJSON, _ := json.Marshal(e)
	fmt.Fprintf(w, "# perfbench %s\n", e.Workload)
	fmt.Fprintf(w, "env %s\n", envJSON)
	fmt.Fprintln(w, "# end-to-end (untraced rounds)")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	fmt.Fprintln(w, "# workload detail")
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-36s %16.6g %s\n", "error_rate", errRate, "ratio")
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
	for _, v := range r.report {
		fmt.Fprintf(w, "  %-36s %16.4f %-10s %s\n", v.name, v.value, v.unit, v.note)
	}
	if !traced {
		return
	}
	fmt.Fprintln(w, "# per-layer")
	for _, d := range perLayer() {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	if r.spans != nil {
		fmt.Fprintln(w, "# spans by layer call (traced rounds)")
		r.spans.printTable(w)
	}
}

func (r *result) writeSpans(w io.Writer, c *config, workload string, e env) error {
	if r.spans == nil {
		return nil
	}
	path := filepath.Join(c.dir, fmt.Sprintf("trace-%s-seed%d.json", workload, c.seed))
	if err := r.spans.writePerfetto(path, e); err != nil {
		return err
	}
	fmt.Fprintf(w, "# span file %s (open in ui.perfetto.dev)\n", path)
	return nil
}
