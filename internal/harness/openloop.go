package harness

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync/atomic"

	"hcf/internal/memsim"
	"hcf/internal/metrics"
	"hcf/internal/trace"
	"hcf/internal/workload"
)

// OpenLoopConfig tunes one open-loop measurement point. Unlike the
// closed-loop harness (captive threads issue the next op the instant the
// previous returns), operations arrive on an external schedule and latency
// is the SOJOURN time — completion minus *intended* arrival — so queueing
// delay is charged to the operations that suffered it. Measuring from
// dequeue instead would be coordinated omission: the overloaded system
// would grade its own homework by only timing the ops it got around to.
type OpenLoopConfig struct {
	// Rate is the aggregate offered load in operations per million cycles,
	// split evenly across threads.
	Rate float64
	// Arrivals optionally overrides the arrival process for each thread
	// (built with the per-thread rate via the factory). Nil uses Poisson.
	Arrivals func(perThreadRate float64) (workload.ArrivalGen, error)
	// Interval is the sampler interval in cycles (default Horizon/20).
	Interval int64
	// SLO configures burn-rate evaluation over sojourn times; nil uses
	// DefaultOpenLoopSLO.
	SLO *metrics.SLOConfig
	// TraceLimit, when positive, instruments the engine with a flight
	// recorder of that many events per thread so trace health (and hot
	// lines, via the observer) feed the live introspection endpoints.
	TraceLimit int
	// Observer, when non-nil, is attached before the run starts and ticked
	// from the driver thread at sampler cadence — the hook the live
	// introspection server hangs off. Observation must charge no simulated
	// cycles; results are bit-identical with or without an observer.
	Observer OpenLoopObserver
}

// DefaultOpenLoopSLOThreshold is the default sojourn objective: 99% of
// operations (all classes) complete within this many cycles.
const DefaultOpenLoopSLOThreshold = 20_000

// DefaultOpenLoopSLO is the objective used when OpenLoopConfig.SLO is nil.
func DefaultOpenLoopSLO() metrics.SLOConfig {
	return metrics.SLOConfig{
		Objectives: []metrics.Objective{
			{Threshold: DefaultOpenLoopSLOThreshold, Target: 0.99},
		},
	}
}

func (c *OpenLoopConfig) normalize(horizon int64) {
	if c.Interval <= 0 {
		c.Interval = max(horizon/20, 1)
	}
	if c.SLO == nil {
		slo := DefaultOpenLoopSLO()
		c.SLO = &slo
	}
}

// OpenLoopView is everything a live observer may read during an open-loop
// run. All fields are safe for concurrent reads while the run progresses:
// recorders are atomic, the sampler and SLO tracker copy under their own
// locks, the trace collector's counter methods are lock-free, and Backlog
// reads only host-side atomics.
type OpenLoopView struct {
	Scenario string
	Engine   string
	Threads  int
	// Service records engine-side service metrics (per completion path,
	// commits/aborts, combining).
	Service *metrics.Recorder
	// Sojourn records intended-start-to-completion times per class.
	Sojourn *metrics.Recorder
	// Sampler emits the interval series (with backlog gauges) over Service.
	Sampler *metrics.Sampler
	// SLO is the burn-rate tracker over Sojourn; nil only if SLO evaluation
	// is disabled.
	SLO *metrics.SLOTracker
	// Trace is the flight recorder; nil unless TraceLimit > 0. Only the
	// counter methods (Starts/Retained/Dropped) are safe mid-run — snapshot
	// methods must be driven from OpenLoopTick.
	Trace *trace.Collector
	// Backlog returns the current arrived-but-uncompleted operation count,
	// as of the last driver tick.
	Backlog func() int64
}

// OpenLoopObserver is attached to an open-loop run before it starts and
// ticked from the driver thread at sampler cadence. OpenLoopTick runs while
// the simulator's cooperative scheduler has every other virtual thread
// parked, so snapshotting structures that are unsafe during emission (e.g.
// trace hot lines) is legal there — and it charges no simulated cycles.
type OpenLoopObserver interface {
	ObserveOpenLoop(v OpenLoopView)
	OpenLoopTick(now int64)
}

// SojournStat summarizes a sojourn-time distribution through the deep tail.
type SojournStat struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	P9999 uint64  `json:"p9999"`
	Max   uint64  `json:"max"`
}

func sojournStatOf(s metrics.HistogramSnapshot) SojournStat {
	return SojournStat{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		P9999: s.Quantile(0.9999),
		Max:   s.Max,
	}
}

// sojournOf summarizes a sojourn recorder: all classes merged, plus one
// row per class that completed an operation.
func sojournOf(rec *metrics.Recorder) (SojournStat, []ClassSojourn) {
	var all metrics.HistogramSnapshot
	var byClass []ClassSojourn
	for c, class := range rec.Classes() {
		snap := rec.ClassHistogram(c)
		if snap.Count > 0 {
			byClass = append(byClass, ClassSojourn{Class: class, SojournStat: sojournStatOf(snap)})
		}
		all.Merge(&snap)
	}
	return sojournStatOf(all), byClass
}

// sloOf snapshots a tracker and reduces it to the worst final alert
// state across objectives.
func sloOf(slo *metrics.SLOTracker) (*metrics.SLOSnapshot, string) {
	snap := slo.Snapshot()
	state := metrics.SLOStateOK
	for _, o := range snap.Objectives {
		if o.State == metrics.SLOStatePage ||
			(o.State == metrics.SLOStateWarn && state == metrics.SLOStateOK) {
			state = o.State
		}
	}
	return &snap, state
}

// ClassSojourn is a per-class sojourn breakdown row.
type ClassSojourn struct {
	Class string `json:"class"`
	SojournStat
}

// OpenLoopPoint is one (engine, offered rate) measurement.
type OpenLoopPoint struct {
	Scenario string  `json:"scenario"`
	Engine   string  `json:"engine"`
	Threads  int     `json:"threads"`
	Rate     float64 `json:"rate"` // offered, ops/Mcycle
	// Arrivals is the number of generated arrivals; Completed the number
	// that finished (always equal — the run drains its queue — but kept
	// separate so a future bounded-drain mode stays honest).
	Arrivals  uint64 `json:"arrivals"`
	Completed uint64 `json:"completed"`
	// Horizon is the arrival window; Makespan when the last op finished.
	// Makespan >> Horizon means the offered load exceeded capacity.
	Horizon  int64 `json:"horizon"`
	Makespan int64 `json:"makespan"`
	// Throughput is completed ops per million cycles of max(makespan,
	// horizon) — the achieved rate, which tracks the offered rate below
	// saturation and the service capacity above it.
	Throughput float64 `json:"throughput"`
	// Saturated marks a point past the knee: draining the arrival backlog
	// ran the clock >10% past the horizon.
	Saturated bool `json:"saturated"`
	// Sojourn is intended-start-to-completion latency, all classes.
	Sojourn SojournStat `json:"sojourn"`
	// ByClass breaks sojourn out per operation class.
	ByClass []ClassSojourn `json:"by_class,omitempty"`
	// MaxBacklog is the largest sampled arrived-but-unfinished count;
	// EndBacklog the count still queued when the arrival window closed.
	MaxBacklog int64 `json:"max_backlog"`
	EndBacklog int64 `json:"end_backlog"`
	// SLOState is the final alert state (worst across objectives); SLO
	// carries the full evaluation including the verdict journal.
	SLOState string               `json:"slo_state"`
	SLO      *metrics.SLOSnapshot `json:"slo,omitempty"`
	// TraceDropped surfaces flight-recorder overwrite when tracing is on.
	TraceDropped       uint64 `json:"trace_dropped,omitempty"`
	InvariantViolation string `json:"invariant_violation,omitempty"`
}

// RunPointOpenLoop measures one engine under one offered load: per-thread
// Poisson (or custom) arrival schedules over [0, Horizon), every arrival
// executed in order with sojourn measured from its intended start, and the
// queue drained past the horizon so queued operations are charged their
// full wait. Thread 0 drives the sampler, SLO evaluation, and observer
// ticks, all at zero simulated cost — results are bit-identical for a
// given (cfg.Seed, rate) with or without observers attached.
func RunPointOpenLoop(sc Scenario, engineName string, threads int, cfg Config, ol OpenLoopConfig) (OpenLoopPoint, *metrics.Report, error) {
	cfg.normalize()
	ol.normalize(cfg.Horizon)
	if ol.Rate <= 0 {
		return OpenLoopPoint{}, nil, fmt.Errorf("harness: open-loop rate must be positive, got %v", ol.Rate)
	}

	// Per-thread arrival schedules, generated up front (host-side).
	perRate := ol.Rate / float64(threads)
	arrivals := make([][]int64, threads)
	var totalArrivals uint64
	for t := 0; t < threads; t++ {
		var gen workload.ArrivalGen
		var err error
		if ol.Arrivals != nil {
			gen, err = ol.Arrivals(perRate)
		} else {
			gen, err = workload.NewPoisson(perRate)
		}
		if err != nil {
			return OpenLoopPoint{}, nil, err
		}
		r := rand.New(rand.NewPCG(cfg.Seed^0xA17ECA11, uint64(t)+1))
		arrivals[t] = workload.GenSchedule(gen, cfg.Horizon, r)
		totalArrivals += uint64(len(arrivals[t]))
	}

	env := memsim.NewDet(memsim.DetConfig{Threads: threads, Cost: cfg.Cost, CapacityHint: cfg.CapacityHint})
	inst := sc.Setup(env, cfg.Seed)
	eng, err := BuildEngine(engineName, env, inst, cfg)
	if err != nil {
		return OpenLoopPoint{}, nil, err
	}
	serviceRec, err := Instrument(eng, &inst, threads, "cycles")
	if err != nil {
		return OpenLoopPoint{}, nil, err
	}
	sojournRec, err := metrics.New(metrics.Config{
		Shards:   threads + 1,
		Classes:  classNames(&inst),
		Paths:    []string{"sojourn"},
		TimeUnit: "cycles",
	})
	if err != nil {
		return OpenLoopPoint{}, nil, err
	}
	var col *trace.Collector
	if ol.TraceLimit > 0 {
		if col, err = InstrumentTrace(eng, ol.TraceLimit); err != nil {
			return OpenLoopPoint{}, nil, err
		}
	}
	slo, err := metrics.NewSLOTracker(sojournRec, *ol.SLO)
	if err != nil {
		return OpenLoopPoint{}, nil, err
	}

	env.ResetStats()
	eng.ResetMetrics()
	sampler := metrics.NewSampler(serviceRec, ol.Interval)

	// Completed counters are atomics so the live backlog gauge can be read
	// from host goroutines (the introspection server) mid-run.
	completed := make([]atomic.Uint64, threads)
	var lastTick atomic.Int64
	backlogAt := func(now int64) int64 {
		var b int64
		for t := range arrivals {
			arrived := sort.Search(len(arrivals[t]), func(i int) bool { return arrivals[t][i] > now })
			b += int64(arrived) - int64(completed[t].Load())
		}
		return max(b, 0)
	}
	var maxBacklog int64
	sampler.SetGauge(func(now int64) metrics.Gauges {
		b := backlogAt(now)
		if b > maxBacklog {
			maxBacklog = b
		}
		// Queue depth: queued beyond the ops currently in service.
		return metrics.Gauges{Backlog: b, QueueDepth: max(b-int64(threads), 0)}
	})

	if ol.Observer != nil {
		ol.Observer.ObserveOpenLoop(OpenLoopView{
			Scenario: sc.Name,
			Engine:   engineName,
			Threads:  threads,
			Service:  serviceRec,
			Sojourn:  sojournRec,
			Sampler:  sampler,
			SLO:      slo,
			Trace:    col,
			Backlog:  func() int64 { return backlogAt(lastTick.Load()) },
		})
	}

	opWork := env.Cost().OpWork
	completedByHorizon := make([]uint64, threads)
	env.Run(func(th *memsim.Thread) {
		t := th.ID()
		rng := rand.New(rand.NewPCG(cfg.Seed^0x9E3779B9, uint64(t)+1))
		for _, intended := range arrivals[t] {
			th.IdleUntil(intended) // park until the intended start
			th.Work(opWork)
			op := inst.NextOp(rng)
			eng.Execute(th, op)
			done := th.Now()
			sojournRec.RecordOp(t, op.Class(), 0, done-intended)
			completed[t].Add(1)
			if done <= cfg.Horizon {
				completedByHorizon[t]++
			}
			if t == 0 {
				lastTick.Store(done)
				if sampler.MaybeSample(done) {
					slo.Step(done)
					if ol.Observer != nil {
						ol.Observer.OpenLoopTick(done)
					}
				}
			}
		}
	})

	pt := OpenLoopPoint{
		Scenario: sc.Name,
		Engine:   engineName,
		Threads:  threads,
		Rate:     ol.Rate,
		Arrivals: totalArrivals,
		Horizon:  cfg.Horizon,
	}
	var doneByHorizon uint64
	for t := 0; t < threads; t++ {
		pt.Completed += completed[t].Load()
		doneByHorizon += completedByHorizon[t]
		if now := env.Now(t); now > pt.Makespan {
			pt.Makespan = now
		}
	}
	span := max(pt.Makespan, cfg.Horizon)
	if span > 0 {
		pt.Throughput = float64(pt.Completed) * 1e6 / float64(span)
	}
	pt.Saturated = pt.Makespan > cfg.Horizon+cfg.Horizon/10
	pt.EndBacklog = int64(totalArrivals - doneByHorizon)

	sampler.Flush(pt.Makespan)
	slo.Step(pt.Makespan)
	if ol.Observer != nil {
		ol.Observer.OpenLoopTick(pt.Makespan)
	}
	pt.MaxBacklog = max(maxBacklog, pt.EndBacklog)

	pt.Sojourn, pt.ByClass = sojournOf(sojournRec)
	pt.SLO, pt.SLOState = sloOf(slo)
	if inst.Check != nil {
		pt.InvariantViolation = inst.Check(env.Boot())
	}

	report := metrics.BuildReport(serviceRec, sampler, sc.Name, engineName, threads)
	report.SLO = pt.SLO
	if col != nil {
		pt.TraceDropped = col.Dropped()
		report.Trace = &metrics.TraceHealth{
			Starts:   col.Starts(),
			Retained: uint64(col.Retained()),
			Dropped:  col.Dropped(),
		}
	}
	return pt, &report, nil
}

// OpenLoopReport is a full offered-load sweep: every engine at every rate.
type OpenLoopReport struct {
	Figure   string          `json:"figure"`
	Scenario string          `json:"scenario"`
	Threads  int             `json:"threads"`
	Seed     uint64          `json:"seed"`
	Horizon  int64           `json:"horizon"`
	Interval int64           `json:"interval"`
	Rates    []float64       `json:"rates"`
	Points   []OpenLoopPoint `json:"-"`
}

// RunOpenLoopSweep measures every engine at every offered rate. Points run
// concurrently across host cores (bounded by cfg.Parallel) — each owns a
// fresh deterministic environment, so results are identical, in identical
// (rate-major, engine-minor) order, at any parallelism. With an
// ol.Observer the points run serially, so the observer always describes
// the point in flight.
func RunOpenLoopSweep(sc Scenario, engineNames []string, rates []float64, threads int, cfg Config, ol OpenLoopConfig) (*OpenLoopReport, error) {
	cfg.normalize()
	ol.normalize(cfg.Horizon)
	if err := ValidateEngineNames(engineNames); err != nil {
		return nil, err
	}
	type point struct {
		rate float64
		name string
	}
	pts := make([]point, 0, len(engineNames)*len(rates))
	for _, r := range rates {
		for _, name := range engineNames {
			pts = append(pts, point{rate: r, name: name})
		}
	}
	rep := &OpenLoopReport{
		Figure:   "openloop",
		Scenario: sc.Name,
		Threads:  threads,
		Seed:     cfg.Seed,
		Horizon:  cfg.Horizon,
		Interval: ol.Interval,
		Rates:    rates,
		Points:   make([]OpenLoopPoint, len(pts)),
	}
	par := cfg.Parallel
	if ol.Observer != nil {
		par = 1 // one observer describes the point in flight
	}
	err := forEachPoint(len(pts), par, func(i int) (err error) {
		olp := ol
		olp.Rate = pts[i].rate
		rep.Points[i], _, err = RunPointOpenLoop(sc, pts[i].name, threads, cfg, olp)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Encode renders the sweep as JSON Lines: a header describing the
// configuration, then one line per (rate, engine) point — the format
// checked in under bench/OPENLOOP_sweep.jsonl.
func (r *OpenLoopReport) Encode() ([]byte, error) { return encodeJSONL(r, r.Points) }

// Decode is the inverse of Encode.
func (r *OpenLoopReport) Decode(data []byte) error { return decodeJSONL(data, r, &r.Points) }

// Text renders the sweep as an aligned table, one block per engine.
func (r *OpenLoopReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: open-loop sweep, %d threads, horizon %d, seed %d\n",
		r.Scenario, r.Threads, r.Horizon, r.Seed)
	fmt.Fprintf(&b, "sojourn latency measured from intended arrival (coordinated-omission safe)\n\n")
	byEngine := map[string][]OpenLoopPoint{}
	var order []string
	for _, p := range r.Points {
		if _, ok := byEngine[p.Engine]; !ok {
			order = append(order, p.Engine)
		}
		byEngine[p.Engine] = append(byEngine[p.Engine], p)
	}
	for _, eng := range order {
		fmt.Fprintf(&b, "%s:\n", eng)
		fmt.Fprintf(&b, "  %10s %10s %8s %8s %8s %8s %10s %10s %6s %5s\n",
			"offered", "achieved", "p50", "p99", "p999", "p9999", "maxbacklog", "endbacklog", "slo", "sat")
		for _, p := range byEngine[eng] {
			sat := ""
			if p.Saturated {
				sat = "*"
			}
			fmt.Fprintf(&b, "  %10.1f %10.1f %8d %8d %8d %8d %10d %10d %6s %5s\n",
				p.Rate, p.Throughput, p.Sojourn.P50, p.Sojourn.P99, p.Sojourn.P999,
				p.Sojourn.P9999, p.MaxBacklog, p.EndBacklog, p.SLOState, sat)
			if p.InvariantViolation != "" {
				fmt.Fprintf(&b, "  !! INVARIANT VIOLATION at rate %.1f: %s\n", p.Rate, p.InvariantViolation)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Check fails on any point whose scenario invariant check failed.
func (r *OpenLoopReport) Check() error { return CheckResults(r.Results()) }

// openLoopGate judges sojourn p99 per (engine, rate, threads) point
// without normalization: the simulator is deterministic, so any trip
// means a code change moved the latency profile by more than 25%.
var openLoopGate = Gate{Metric: "sojourn p99", Tolerance: 1.25}

// Baseline implements GatedRecord.
func (r *OpenLoopReport) Baseline() (Gate, []GatePoint) {
	pts := make([]GatePoint, len(r.Points))
	for i, p := range r.Points {
		pts[i] = GatePoint{
			Key:   fmt.Sprintf("%s rate=%g threads=%d", p.Engine, p.Rate, p.Threads),
			Value: float64(p.Sojourn.P99),
		}
	}
	return openLoopGate, pts
}

// OpenLoopDefaultRates is the checked-in sweep's offered-load ladder
// (ops/Mcycle): from well below every engine's knee to past the fastest
// engine's saturation point.
var OpenLoopDefaultRates = []float64{2000, 8000, 20000, 45000, 90000}

// OpenLoopDefaultEngines are the engines the checked-in sweep compares:
// the mutex baseline, single-framework HCF, and sharded HCF.
var OpenLoopDefaultEngines = []string{"Lock", "HCF", ShardedEngineName}

// OpenLoopScenario is the sweep's workload: the 4-shard hash table at 40%
// Find, runnable by sharded and unsharded engines alike.
func OpenLoopScenario() Scenario {
	return ShardedHashTableScenario(40, paperBuckets, 4, 0, 0)
}

// RunOpenLoopFigure runs the default checked-in sweep.
func RunOpenLoopFigure(threads int, cfg Config, ol OpenLoopConfig) (*OpenLoopReport, error) {
	return RunOpenLoopSweep(OpenLoopScenario(), OpenLoopDefaultEngines, OpenLoopDefaultRates, threads, cfg, ol)
}

// Results flattens the sweep into standard Result rows (rate folded into
// the scenario label) so `-fig openloop` composes with the generic figure
// renderers.
func (r *OpenLoopReport) Results() []Result {
	out := make([]Result, 0, len(r.Points))
	for _, p := range r.Points {
		out = append(out, Result{
			Scenario:           fmt.Sprintf("%s@%.0f", p.Scenario, p.Rate),
			Engine:             p.Engine,
			Threads:            p.Threads,
			Ops:                p.Completed,
			Cycles:             p.Makespan,
			Throughput:         p.Throughput,
			InvariantViolation: p.InvariantViolation,
		})
	}
	return out
}
