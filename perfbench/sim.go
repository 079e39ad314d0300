package main

import (
	"fmt"
	"runtime"
	"time"

	"hcf/internal/harness"
	"hcf/internal/htm"
	"hcf/internal/memsim"
)

// simPoint is one (scenario, engine) measurement of the sweep.
type simPoint struct {
	scen   int // index into simScenarios
	sc     harness.Scenario
	engine string
}

// runSim is sim-paper: the paper's six engines at 36 virtual threads on
// the Figure 2(c) hash table, the §1 priority queue and the Figure 5(a)
// AVL set, run serially on one host thread. Virtual results repeat
// bit-exactly for a seed; the host time per point is what varies.
func runSim(c *config) (*result, error) {
	sz := c.sizes
	// The simulator runs its virtual threads one at a time; a second P
	// only adds cross-thread wake-ups to every handoff between them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := harness.Config{Horizon: sz.simHorizon, Seed: c.seed, Parallel: 1}
	var points []simPoint
	for i, s := range simScenarios {
		f, err := harness.FigureByID(s.figure)
		if err != nil {
			return nil, err
		}
		for _, e := range harness.EngineNames {
			points = append(points, simPoint{i, f.Scenario, e})
		}
	}
	res := newResult()
	ser := series{}
	var log *spanLog
	if c.trace {
		log = newSpanLog()
		res.spans = log
	}

	// Set-up: build each scenario's simulator, structure and HCF engine
	// the way RunPoint does before its first simulated operation.
	keep := &[]any{}
	for i := 0; i < sz.setups; i++ {
		*keep = (*keep)[:0]
		t0 := time.Now()
		for j, s := range simScenarios {
			ts := time.Now()
			env := memsim.NewDet(memsim.DetConfig{Threads: sz.simThreads})
			inst := points[j*len(harness.EngineNames)].sc.Setup(env, c.seed)
			eng, err := harness.BuildEngine("HCF", env, inst, cfg)
			if err != nil {
				return nil, err
			}
			*keep = append(*keep, env, eng)
			if log != nil {
				log.record(spanID(i, -1, j+1), 0, "harness.setup "+s.short, "internal/harness", 0, ts)
			}
		}
		ser.add("setup_s", time.Since(t0).Seconds())
	}

	// Measure: cycle through the points until the time is up. Traced runs
	// alternate untraced and traced passes over the sweep.
	first := make([]harness.Result, len(points))
	host := make([][]float64, len(points))
	traced := make([][]float64, len(points))
	minRuns := len(points)
	if log != nil {
		minRuns *= 2
	}
	start := time.Now()
	var runs int
	for n := 0; ; n++ {
		i, pass := n%len(points), n/len(points)
		p := points[i]
		if n >= minRuns {
			next := 0.0
			if len(host[i]) > 0 {
				next = host[i][len(host[i])-1]
			}
			if time.Since(start).Seconds()+next > c.seconds {
				break
			}
		}
		t0 := time.Now()
		r, err := harness.RunPoint(p.sc, p.engine, sz.simThreads, cfg)
		if err != nil {
			return nil, err
		}
		dt := time.Since(t0).Seconds()
		runs++
		res.attempted++
		if log != nil && pass%2 == 1 {
			traced[i] = append(traced[i], dt)
			log.record(spanID(pass, -1, 100+i), 0, "harness.RunPoint "+simScenarios[p.scen].short+"/"+p.engine,
				"internal/harness", 0, t0)
		} else {
			host[i] = append(host[i], dt)
		}
		if c.injectFault && n == 0 {
			r.InvariantViolation = "injected fault"
		}
		if r.InvariantViolation != "" {
			res.fail("%s/%s: invariant violated: %s", r.Scenario, p.engine, r.InvariantViolation)
		}
		if pass == 0 {
			first[i] = r
		} else if !sameResult(first[i], r) {
			res.fail("%s/%s: pass %d differs from pass 0 (the simulator must be deterministic)", r.Scenario, p.engine, pass)
		}
	}

	// End-to-end: the sweep's host cost, from per-point median host times.
	var ops uint64
	var cycles int64
	var sweepS, tracedS, untracedS float64
	pointUS := make([]float64, len(points))
	for i := range points {
		m := median(host[i])
		pointUS[i] = m * 1e6
		sweepS += m
		ops += first[i].Ops
		cycles += first[i].Cycles
		if len(traced[i]) > 0 {
			tracedS += median(traced[i])
			untracedS += m
		}
	}
	res.rounds, res.opsPerRound = runs, len(points)
	// The unit of work a user waits for is a figure sweep: the 18 points.
	// A run covers a handful of sweeps, too few for a percentile, so
	// op_p99_us reports the median sweep — the sum of the per-point
	// median host times — and ops_per_s its inverse.
	res.metrics["setup_s"] = ser.med("setup_s")
	res.metrics["ops_per_s"] = 1 / sweepS
	res.metrics["op_p99_us"] = sweepS * 1e6
	res.metrics["op_p50_us"] = median(pointUS)
	res.metrics["sim_mcycles_per_s"] = float64(cycles) / 1e6 / sweepS
	if log != nil {
		res.metrics["trace.overhead_pct"] = 100 * (tracedS/untracedS - 1)
	}
	simLayer(res, points, first, host)
	for _, sc := range simScenarios {
		name := "sim." + sc.short + "_hcf_ops_per_mcycle"
		res.note(name, res.metrics[name], "ops/Mcycle", "HCF at 36 virtual threads (deterministic)")
	}
	res.note("sim_mcycles_per_s", res.metrics["sim_mcycles_per_s"], "Mcycle/s", "virtual time simulated per host second")
	res.note("sim_ops_per_host_s", float64(ops)/sweepS, "1/s", "simulated operations per host second (seed-dependent op counts)")
	res.note("sweep_host_s", sweepS, "s", fmt.Sprintf("%d points, horizon %d cycles, GOMAXPROCS 1", len(points), sz.simHorizon))
	res.metrics["live_heap_mb"] = retainedMB(&keep)
	return res, nil
}

// sameResult compares the virtual outcome of two runs of one point.
func sameResult(a, b harness.Result) bool {
	if a.Ops != b.Ops || a.Cycles != b.Cycles || a.Metrics != b.Metrics || a.Mem != b.Mem ||
		len(a.PhaseByClass) != len(b.PhaseByClass) {
		return false
	}
	for i := range a.PhaseByClass {
		if a.PhaseByClass[i] != b.PhaseByClass[i] {
			return false
		}
	}
	return true
}

// simLayer fills the simulator per-layer metrics of each scenario from
// its points' harness results (core, htm, memsim and the reference
// engines) and host times.
func simLayer(res *result, points []simPoint, first []harness.Result, host [][]float64) {
	for i, p := range points {
		r := first[i]
		pre := "sim." + simScenarios[p.scen].short
		res.metrics[pre+".host_s"] += median(host[i])
		if p.engine != "HCF" {
			for _, e := range simRefEngines {
				if e.engine == p.engine {
					res.metrics[pre+"."+e.short+"_ops_per_mcycle"] = r.Throughput
				}
			}
			continue
		}
		m := r.Metrics
		res.metrics[pre+"_hcf_ops_per_mcycle"] = r.Throughput
		res.metrics[pre+".combining_degree"] = m.CombiningDegree()
		res.metrics[pre+".lock_acq_per_op"] = ratio(m.LockAcquisitions, r.Ops)
		var done uint64
		for _, n := range m.PhaseCompleted {
			done += n
		}
		for ph, name := range []string{"private", "visible", "combining", "underlock"} {
			res.metrics[pre+".phase_pct."+name] = pct(m.PhaseCompleted[ph], done)
		}
		aborts := m.HTM.TotalAborts()
		res.metrics[pre+".htm_abort_ratio"] = ratio(aborts, m.HTM.Started)
		res.metrics[pre+".abort_conflict_pct"] = pct(m.HTM.Aborts[htm.ReasonConflict], aborts)
		res.metrics[pre+".abort_capacity_pct"] = pct(m.HTM.Aborts[htm.ReasonCapacity], aborts)
		res.metrics[pre+".l1_miss_rate"] = r.Mem.MissRate()
	}
}
