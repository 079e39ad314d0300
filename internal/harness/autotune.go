package harness

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"hcf/internal/adaptive"
	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/metrics"
	"hcf/internal/seq/skiplist"
	"hcf/internal/trace"
	"hcf/internal/workload"
)

// The autotune comparison's drifting workload: the introduction's skip-list
// priority queue under a mix that shifts twice. Segment 0 is fill-mode
// (insert-dominated): RemoveMins are rare, so parking them in the
// combining phases only serializes solo operations — speculation wins for
// both classes. Segment 1 is contended 50/50: RemoveMins hammer the head,
// speculative removal collapses (the TLE lemming effect the paper's
// introduction describes) and batching RemoveMins under a combiner wins.
// Segment 2 returns to fill-mode. A policy fixed for either mode pays in
// the other, which is exactly the case an online tuner must win.
//
// The key ranges drift with the mix: fill-mode inserts draw from a narrow
// low band, contended-mode inserts from the full range. After a fill, the
// queue's head sits in the low band, so contended-mode inserts land above
// it — away from the head — and combined RemoveMin batches can commit
// instead of being aborted by near-head insertions.
const (
	autotuneKeyRange  = 1 << 20
	autotuneMidKeys   = 1 << 18 // fill-mode insert priorities (low band)
	autotuneInsertPct = 90      // fill-mode insert share
	autotuneDrainPct  = 50      // contended-mode insert share
	autotunePrefill   = 8192
	// autotuneTick is the tuner thread's virtual-time step interval.
	autotuneTick = 1000
)

// AutotuneStatics returns the hand-picked static trial-budget grid
// (private/visible/combining, applied to both classes) the tuner is
// compared against. The first entry is the paper's §2.1 priority-queue
// configuration — per-class hand tuning, the configuration the tuned
// variant starts from and the CI gate's baseline; the rest are uniform
// one-size-fits-both policies.
func AutotuneStatics() [][3]int {
	return [][3]int{
		paperBudget, // sentinel: the paper's per-class §2.1 configuration
		{8, 2, 0},   // speculation-heavy: right for fill-mode inserts
		{0, 0, 8},   // combining-only: right for drain-mode RemoveMins
		{10, 0, 0},  // TLE-like all-private
		{2, 3, 5},   // combining-lean split (the §3.3 hash-table budget)
		{4, 3, 3},   // balanced
	}
}

// paperBudget marks the variant that keeps skiplist.Policies() untouched
// instead of forcing one uniform budget onto both classes.
var paperBudget = [3]int{-1, -1, -1}

// AutotuneVariant is one run of the drifting workload: a static policy,
// the tuned run, or the synthesized oracle row.
type AutotuneVariant struct {
	// Name labels the variant ("HCF-static-2/3/5", "HCF-tuned", "oracle").
	Name string `json:"name"`
	// Tuned marks the autotuned run; Oracle marks the synthesized
	// per-segment-best row (not a real single run).
	Tuned  bool `json:"tuned,omitempty"`
	Oracle bool `json:"oracle,omitempty"`
	// Budgets is the insert-class trial configuration the run started from.
	Budgets [3]int `json:"insert_budgets"`
	// Ops and Throughput (ops per million cycles) cover the full horizon.
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"throughput"`
	// SegmentOps and SegmentThroughput split the run by drift segment.
	SegmentOps        []uint64  `json:"segment_ops"`
	SegmentThroughput []float64 `json:"segment_throughput"`
	// PostDrift is the throughput over everything after the first drift
	// point (segments 1..n) — the region where a static policy tuned for
	// segment 0 pays for its rigidity.
	PostDrift float64 `json:"post_drift_throughput"`
	// Decisions counts journal entries (tuned variant only).
	Decisions int `json:"decisions,omitempty"`
	// FinalPolicy is the end-of-run policy state (tuned variant only).
	FinalPolicy *adaptive.Snapshot `json:"final_policy,omitempty"`
	// InvariantViolation is non-empty if the scenario check failed.
	InvariantViolation string `json:"invariant_violation,omitempty"`
}

// AutotuneReport is the full drifting-workload comparison: every static
// variant, the tuned run with its decision journal, and the oracle row.
type AutotuneReport struct {
	Scenario string  `json:"scenario"`
	Threads  int     `json:"threads"`
	Seed     uint64  `json:"seed"`
	Horizon  int64   `json:"horizon"`
	Bounds   []int64 `json:"bounds"`
	// Segments labels the drift segments, index-aligned with SegmentOps.
	Segments []string          `json:"segments"`
	Variants []AutotuneVariant `json:"variants"`
	// Journal is the tuned run's decision journal.
	Journal *adaptive.Journal `json:"-"`
}

// autotuneWorkload assembles the drifting mix and key generators over the
// horizon: drift points at 1/3 and 2/3.
func autotuneWorkload(horizon int64) (*workload.DriftMix, *workload.DriftKeys, []int64, []string, error) {
	bounds := []int64{horizon / 3, 2 * horizon / 3}
	sched, err := workload.NewSchedule(bounds...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fillMix, err := workload.NewMix(autotuneInsertPct, 100-autotuneInsertPct)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	drainMix, err := workload.NewMix(autotuneDrainPct, 100-autotuneDrainPct)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	mix, err := workload.NewDriftMix(sched, fillMix, drainMix, fillMix)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	wide := workload.Uniform{N: autotuneKeyRange}
	mid := workload.Uniform{N: autotuneMidKeys}
	keys, err := workload.NewDriftKeys(sched, mid, wide, mid)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	labels := []string{
		fmt.Sprintf("fill %d%% insert", autotuneInsertPct),
		fmt.Sprintf("contended %d%% removemin", 100-autotuneDrainPct),
		fmt.Sprintf("fill %d%% insert", autotuneInsertPct),
	}
	return mix, keys, bounds, labels, nil
}

// runAutotuneVariant measures one variant of the drifting workload. All
// variants share the identical environment, prefill and per-thread random
// streams; they differ only in the insert-class starting budgets and in
// whether the tuner is stepping. Every variant (static ones included) runs
// fully instrumented — recording charges zero simulated cycles, so the
// instrumentation itself cannot tilt the comparison.
func runAutotuneVariant(name string, budgets [3]int, tuned bool, threads int, cfg Config) (AutotuneVariant, *adaptive.Tuner, error) {
	mix, keys, bounds, _, err := autotuneWorkload(cfg.Horizon)
	if err != nil {
		return AutotuneVariant{}, nil, err
	}
	sched := mix.Schedule()
	segs := sched.Segments()

	// One extra simulator thread ticks the tuner so epoch cadence never
	// depends on a worker's op latency (a worker stuck behind a slow
	// combined operation would stall tuning exactly when the policy is
	// worst). Static variants carry the same idle thread, keeping every
	// variant's simulated environment identical.
	env := memsim.NewDet(memsim.DetConfig{Threads: threads + 1, Cost: cfg.Cost, CapacityHint: cfg.CapacityHint})
	boot := env.Boot()
	q := skiplist.New(boot)
	pre := rand.New(rand.NewPCG(cfg.Seed, 0xADA))
	for i := 0; i < autotunePrefill; i++ {
		q.Insert(boot, pre.Uint64N(autotuneKeyRange), skiplist.RandomLevel(pre))
	}
	pols := skiplist.Policies()
	if budgets != paperBudget {
		for c := range pols {
			pols[c].TryPrivateTrials = budgets[0]
			pols[c].TryVisibleTrials = budgets[1]
			pols[c].TryCombiningTrials = budgets[2]
		}
	}
	fw, err := core.New(env, core.Config{
		Policies: pols,
		HTM:      cfg.HTM,
		Name:     name,
	})
	if err != nil {
		return AutotuneVariant{}, nil, err
	}

	rec, err := metrics.New(metrics.Config{
		Shards:   threads + 1,
		Classes:  []string{"insert", "removemin"},
		Paths:    fw.CompletionPaths(),
		Outcomes: outcomeNames(),
		TimeUnit: "cycles",
	})
	if err != nil {
		return AutotuneVariant{}, nil, err
	}
	fw.SetRecorder(rec)
	// Limit 1: aggregate counters (attempt taxonomy, conflict attribution,
	// selection sizes) cover every event regardless, and the tuner needs
	// only those — no reason to retain the full event timeline.
	col := &trace.Collector{Limit: 1}
	fw.SetTracer(col)

	var tun *adaptive.Tuner
	if tuned {
		tun = adaptive.NewTuner(fw, rec, col, adaptive.TunerConfig{
			// A parked class earns evidence at its own (slow) completion
			// rate, so qualify epochs on less of it and probe sooner than
			// the defaults; decision thresholds stay at their defaults.
			MinOpsPerEpoch: 32,
			ProbeEpochs:    2,
		})
	}

	env.ResetStats()
	fw.ResetMetrics()
	opWork := env.Cost().OpWork
	opsByThread := make([]uint64, threads)
	segOps := make([][]uint64, threads)
	for t := range segOps {
		segOps[t] = make([]uint64, segs)
	}
	env.Run(func(th *memsim.Thread) {
		if th.ID() == threads {
			// The tuner thread: ticks on a fixed virtual-time cadence; the
			// tuner's MinOpsPerEpoch gate paces real epochs by evidence.
			for th.Now() < cfg.Horizon {
				th.Work(autotuneTick)
				if tun != nil {
					tun.Step(th.Now())
				}
			}
			return
		}
		rng := rand.New(rand.NewPCG(cfg.Seed^0xD1F7, uint64(th.ID())+1))
		for th.Now() < cfg.Horizon {
			th.Work(opWork)
			now := th.Now()
			var op engine.Op
			if mix.PickAt(now, rng) == 0 {
				op = skiplist.InsertOp{Q: q, Key: keys.NextAt(now, rng), Level: skiplist.RandomLevel(rng)}
			} else {
				op = skiplist.RemoveMinOp{Q: q}
			}
			fw.Execute(th, op)
			opsByThread[th.ID()]++
			segOps[th.ID()][sched.SegmentAt(now)]++
		}
	})

	v := AutotuneVariant{
		Name:              name,
		Tuned:             tuned,
		Budgets:           budgets,
		SegmentOps:        make([]uint64, segs),
		SegmentThroughput: make([]float64, segs),
	}
	var cycles int64
	for t := 0; t < threads; t++ {
		v.Ops += opsByThread[t]
		for s := 0; s < segs; s++ {
			v.SegmentOps[s] += segOps[t][s]
		}
		if now := env.Now(t); now > cycles {
			cycles = now
		}
	}
	if cycles > 0 {
		v.Throughput = float64(v.Ops) * 1e6 / float64(cycles)
	}
	for s := 0; s < segs; s++ {
		start := sched.Bound(s)
		end := cfg.Horizon
		if s < len(bounds) {
			end = bounds[s]
		}
		if d := end - start; d > 0 {
			v.SegmentThroughput[s] = float64(v.SegmentOps[s]) * 1e6 / float64(d)
		}
	}
	if post := cfg.Horizon - sched.Bound(1); post > 0 {
		var ops uint64
		for s := 1; s < segs; s++ {
			ops += v.SegmentOps[s]
		}
		v.PostDrift = float64(ops) * 1e6 / float64(post)
	}
	if tun != nil {
		v.Decisions = tun.Journal().Len()
		snap := tun.Snapshot()
		v.FinalPolicy = &snap
	}
	v.InvariantViolation = q.CheckInvariants(boot)
	return v, tun, nil
}

// RunAutotune runs the full drifting-workload comparison: every static
// variant from AutotuneStatics, the tuned run (starting from the paper
// baseline, stepping the tuner from thread 0), and a synthesized
// oracle row taking each segment's best static throughput — the bound a
// clairvoyant per-segment configuration would achieve.
func RunAutotune(threads int, cfg Config) (*AutotuneReport, error) {
	cfg.normalize()
	_, _, bounds, labels, err := autotuneWorkload(cfg.Horizon)
	if err != nil {
		return nil, err
	}
	rep := &AutotuneReport{
		Scenario: "pqueue/drift",
		Threads:  threads,
		Seed:     cfg.Seed,
		Horizon:  cfg.Horizon,
		Bounds:   bounds,
		Segments: labels,
	}
	for _, b := range AutotuneStatics() {
		name := fmt.Sprintf("HCF-static-%d/%d/%d", b[0], b[1], b[2])
		if b == paperBudget {
			name = "HCF-paper"
		}
		v, _, err := runAutotuneVariant(name, b, false, threads, cfg)
		if err != nil {
			return nil, err
		}
		rep.Variants = append(rep.Variants, v)
	}
	tuned, tun, err := runAutotuneVariant("HCF-tuned", AutotuneStatics()[0], true, threads, cfg)
	if err != nil {
		return nil, err
	}
	rep.Variants = append(rep.Variants, tuned)
	rep.Journal = tun.Journal()

	// Oracle: per-segment best static. Its total is the sum of the
	// winners' segment ops over the horizon.
	segs := len(labels)
	oracle := AutotuneVariant{
		Name: "oracle", Oracle: true,
		SegmentOps:        make([]uint64, segs),
		SegmentThroughput: make([]float64, segs),
	}
	for s := 0; s < segs; s++ {
		for _, v := range rep.Variants {
			if v.Tuned {
				continue
			}
			if v.SegmentOps[s] > oracle.SegmentOps[s] {
				oracle.SegmentOps[s] = v.SegmentOps[s]
				oracle.SegmentThroughput[s] = v.SegmentThroughput[s]
			}
		}
		oracle.Ops += oracle.SegmentOps[s]
	}
	if cfg.Horizon > 0 {
		oracle.Throughput = float64(oracle.Ops) * 1e6 / float64(cfg.Horizon)
	}
	if post := cfg.Horizon - bounds[0]; post > 0 {
		var ops uint64
		for s := 1; s < segs; s++ {
			ops += oracle.SegmentOps[s]
		}
		oracle.PostDrift = float64(ops) * 1e6 / float64(post)
	}
	rep.Variants = append(rep.Variants, oracle)
	return rep, nil
}

// Variant finds a variant by name (nil if absent).
func (r *AutotuneReport) Variant(name string) *AutotuneVariant {
	for i := range r.Variants {
		if r.Variants[i].Name == name {
			return &r.Variants[i]
		}
	}
	return nil
}

// Tuned returns the autotuned variant (nil if absent).
func (r *AutotuneReport) Tuned() *AutotuneVariant {
	for i := range r.Variants {
		if r.Variants[i].Tuned {
			return &r.Variants[i]
		}
	}
	return nil
}

// BestStatic returns the static variant with the highest throughput over
// the full horizon.
func (r *AutotuneReport) BestStatic() *AutotuneVariant {
	var best *AutotuneVariant
	for i := range r.Variants {
		v := &r.Variants[i]
		if v.Tuned || v.Oracle {
			continue
		}
		if best == nil || v.Throughput > best.Throughput {
			best = v
		}
	}
	return best
}

// BestStaticPostDrift returns the static variant with the highest
// post-drift throughput.
func (r *AutotuneReport) BestStaticPostDrift() *AutotuneVariant {
	var best *AutotuneVariant
	for i := range r.Variants {
		v := &r.Variants[i]
		if v.Tuned || v.Oracle {
			continue
		}
		if best == nil || v.PostDrift > best.PostDrift {
			best = v
		}
	}
	return best
}

// Results maps the report to standard sweep rows (one per variant over the
// full horizon, plus a post-drift row per variant) so the autotune figure
// renders with the existing table and plot machinery.
func (r *AutotuneReport) Results() []Result {
	var out []Result
	for _, v := range r.Variants {
		out = append(out, Result{
			Scenario:           r.Scenario,
			Engine:             v.Name,
			Threads:            r.Threads,
			Ops:                v.Ops,
			Cycles:             r.Horizon,
			Throughput:         v.Throughput,
			InvariantViolation: v.InvariantViolation,
		})
		var postOps uint64
		for s := 1; s < len(v.SegmentOps); s++ {
			postOps += v.SegmentOps[s]
		}
		out = append(out, Result{
			Scenario:   r.Scenario + "/post-drift",
			Engine:     v.Name,
			Threads:    r.Threads,
			Ops:        postOps,
			Cycles:     r.Horizon - r.Bounds[0],
			Throughput: v.PostDrift,
		})
	}
	return out
}

// JSONL renders the report as one JSON object per line: a header line
// describing the scenario, then one line per variant per region (total,
// each segment, post-drift) — the format checked in under bench/.
func (r *AutotuneReport) JSONL() ([]byte, error) {
	type header struct {
		Scenario string   `json:"scenario"`
		Threads  int      `json:"threads"`
		Seed     uint64   `json:"seed"`
		Horizon  int64    `json:"horizon"`
		Bounds   []int64  `json:"bounds"`
		Segments []string `json:"segments"`
	}
	type row struct {
		Variant    string  `json:"variant"`
		Tuned      bool    `json:"tuned,omitempty"`
		Oracle     bool    `json:"oracle,omitempty"`
		Budgets    [3]int  `json:"insert_budgets"`
		Region     string  `json:"region"`
		Ops        uint64  `json:"ops"`
		Throughput float64 `json:"throughput"`
		Decisions  int     `json:"decisions,omitempty"`
	}
	var rows []row
	for _, v := range r.Variants {
		rows = append(rows, row{v.Name, v.Tuned, v.Oracle, v.Budgets, "total", v.Ops, v.Throughput, v.Decisions})
		for s := range v.SegmentOps {
			rows = append(rows, row{v.Name, v.Tuned, v.Oracle, v.Budgets, fmt.Sprintf("segment%d", s), v.SegmentOps[s], v.SegmentThroughput[s], 0})
		}
		var postOps uint64
		for s := 1; s < len(v.SegmentOps); s++ {
			postOps += v.SegmentOps[s]
		}
		rows = append(rows, row{v.Name, v.Tuned, v.Oracle, v.Budgets, "post-drift", postOps, v.PostDrift, 0})
	}
	return encodeJSONL(header{r.Scenario, r.Threads, r.Seed, r.Horizon, r.Bounds, r.Segments}, rows)
}

// Text renders the comparison as an aligned table plus the tuned run's
// final policy, for terminal reports.
func (r *AutotuneReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d threads, seed %d, horizon %d (drift at %v)\n",
		r.Scenario, r.Threads, r.Seed, r.Horizon, r.Bounds)
	for i, s := range r.Segments {
		fmt.Fprintf(&b, "  segment %d: %s\n", i, s)
	}
	fmt.Fprintf(&b, "\n%-18s %10s", "variant", "total")
	for i := range r.Segments {
		fmt.Fprintf(&b, " %9s%d", "seg", i)
	}
	fmt.Fprintf(&b, " %10s\n", "post-drift")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "%-18s %10.1f", v.Name, v.Throughput)
		for _, st := range v.SegmentThroughput {
			fmt.Fprintf(&b, " %10.1f", st)
		}
		fmt.Fprintf(&b, " %10.1f", v.PostDrift)
		if v.Tuned {
			fmt.Fprintf(&b, "  (%d decisions)", v.Decisions)
		}
		b.WriteByte('\n')
	}
	if t := r.Tuned(); t != nil && t.FinalPolicy != nil {
		b.WriteString("\nfinal tuned policy:\n")
		for _, c := range t.FinalPolicy.Classes {
			fmt.Fprintf(&b, "class %d: private=%d visible=%d combining=%d\n",
				c.Class, c.Policy.Private, c.Policy.Visible, c.Policy.Combining)
		}
	}
	return b.String()
}
