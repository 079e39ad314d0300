package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/shard"
	"hcf/internal/workload"
)

// ElasticRunConfig tunes the elastic (hot-shard healing) figure: an
// open-loop run at one offered rate whose sojourn series is cut into
// fixed windows so the p99 verdict can be watched degrading when the
// skew lands on one shard and recovering after the rebalancer splits it.
type ElasticRunConfig struct {
	// Rate is the aggregate offered load in ops per million cycles
	// (default ElasticDefaultRate).
	Rate float64
	// Window is the verdict/rebalancer cadence in cycles (default
	// Horizon/16).
	Window int64
	// SLOThreshold is the per-window sojourn p99 objective in cycles
	// (default DefaultOpenLoopSLOThreshold). A window is "ok" iff its
	// p99 is at or under the threshold.
	SLOThreshold int64
}

// elasticGate is the healing check's post-heal throughput floor, as a
// fraction of the balanced run's post-phase throughput.
const elasticGate = 0.8

// ElasticDefaultRate is the checked-in figure's offered load
// (ops/Mcycle): comfortably under the balanced multi-shard capacity,
// well over what a single hot shard can serve.
var ElasticDefaultRate = 32000.0

// Default elastic-figure topology: start with the openloop figure's
// 4 active shards and provision 4 spares for splits to grow into. The
// table is smaller than the paper figures' (ElasticBuckets) so a split
// migrates hundreds — not thousands — of keys: the all-locks move must
// stall the system for well under one verdict window, or the cure
// reads worse than the disease. ElasticDefaultHorizon is sized the
// same way (a migration stall is a blip, not an era).
const (
	ElasticMaxShards      = 8
	ElasticInitialShards  = 4
	ElasticHotPct         = 90
	ElasticBuckets        = 4096
	ElasticDefaultHorizon = 1_600_000
)

func (c *ElasticRunConfig) normalize(horizon int64) {
	if c.Rate <= 0 {
		c.Rate = ElasticDefaultRate
	}
	if c.Window <= 0 {
		c.Window = max(horizon/16, 1)
	}
	if c.SLOThreshold <= 0 {
		c.SLOThreshold = DefaultOpenLoopSLOThreshold
	}
}

// ElasticWindow is one fixed time slice of an elastic run.
type ElasticWindow struct {
	Start      int64   `json:"start"`
	End        int64   `json:"end"`
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"throughput"` // completions per Mcycle
	P99        uint64  `json:"p99"`        // sojourn, cycles
	OK         bool    `json:"ok"`         // p99 <= threshold
}

// ElasticPoint is one mode's measurement: the same scenario run
// "balanced" (no skew), "static" (drifting skew, topology frozen), or
// "elastic" (same skew with the rebalancer stepped at window cadence).
type ElasticPoint struct {
	Scenario  string  `json:"scenario"`
	Engine    string  `json:"engine"`
	Mode      string  `json:"mode"`
	Threads   int     `json:"threads"`
	Rate      float64 `json:"rate"`
	Arrivals  uint64  `json:"arrivals"`
	Completed uint64  `json:"completed"`
	Horizon   int64   `json:"horizon"`
	Makespan  int64   `json:"makespan"`
	// Throughput is completions per Mcycle over max(makespan, horizon).
	Throughput float64 `json:"throughput"`
	// Saturated marks a run that needed >10% past the horizon to drain.
	Saturated bool        `json:"saturated"`
	Sojourn   SojournStat `json:"sojourn"`
	// Post-phase stats cover completions in the last quarter of the
	// horizon — after the second drift target has been hot for a while,
	// so a healed topology has had time to show it.
	PostThroughput float64 `json:"post_throughput"`
	PostP99        uint64  `json:"post_p99"`
	// BadWindows counts windows whose p99 missed the threshold;
	// FirstBad/LastBad are their window indices (-1 when none).
	BadWindows int `json:"bad_windows"`
	FirstBad   int `json:"first_bad"`
	LastBad    int `json:"last_bad"`
	// Healed: the verdict flipped back — there was a bad window and the
	// last non-empty window is ok again.
	Healed  bool            `json:"healed"`
	Windows []ElasticWindow `json:"windows"`
	// Topology is the engine's final routing state; Decisions the
	// rebalancer's journal (elastic mode only).
	Topology           *shard.Topology           `json:"topology,omitempty"`
	Decisions          []shard.RebalanceDecision `json:"decisions,omitempty"`
	InvariantViolation string                    `json:"invariant_violation,omitempty"`
}

// RunPointElastic measures one mode of the elastic figure: open-loop
// arrivals exactly as RunPointOpenLoop (same schedules, same rng
// streams), operations drawn time-aware via Instance.NextOpAt so the
// skew can drift, and — when rebalance is set — thread 0 stepping a
// shard.Rebalancer once per window so topology decisions are part of
// the measured run (their lock-the-world cost is charged to the clock).
func RunPointElastic(sc Scenario, mode string, rebalance bool, threads int, cfg Config, ec ElasticRunConfig) (ElasticPoint, error) {
	cfg.normalize()
	ec.normalize(cfg.Horizon)

	perRate := ec.Rate / float64(threads)
	arrivals := make([][]int64, threads)
	var totalArrivals uint64
	for t := 0; t < threads; t++ {
		gen, err := workload.NewPoisson(perRate)
		if err != nil {
			return ElasticPoint{}, err
		}
		r := rand.New(rand.NewPCG(cfg.Seed^0xA17ECA11, uint64(t)+1))
		arrivals[t] = workload.GenSchedule(gen, cfg.Horizon, r)
		totalArrivals += uint64(len(arrivals[t]))
	}

	env := memsim.NewDet(memsim.DetConfig{Threads: threads, Cost: cfg.Cost, CapacityHint: cfg.CapacityHint})
	inst := sc.Setup(env, cfg.Seed)
	if inst.Elastic == nil {
		return ElasticPoint{}, fmt.Errorf("harness: scenario %q has no elastic sharding plan", sc.Name)
	}
	eng, err := BuildEngine(ElasticEngineName, env, inst, cfg)
	if err != nil {
		return ElasticPoint{}, err
	}
	el, ok := eng.(*shard.Elastic)
	if !ok {
		return ElasticPoint{}, fmt.Errorf("harness: engine %q is not elastic", ElasticEngineName)
	}
	var rb *shard.Rebalancer
	if rebalance {
		rb = shard.NewRebalancer(el, inst.Elastic.Rebalance)
	}
	nextOp := inst.NextOpAt
	if nextOp == nil {
		nextOp = func(now int64, r *rand.Rand) engine.Op { return inst.NextOp(r) }
	}

	type sample struct{ done, sojourn int64 }
	samples := make([][]sample, threads)
	opWork := env.Cost().OpWork
	env.ResetStats()
	eng.ResetMetrics()
	env.Run(func(th *memsim.Thread) {
		t := th.ID()
		rng := rand.New(rand.NewPCG(cfg.Seed^0x9E3779B9, uint64(t)+1))
		buf := make([]sample, 0, len(arrivals[t]))
		nextStep := ec.Window
		for _, intended := range arrivals[t] {
			th.IdleUntil(intended)
			th.Work(opWork)
			op := nextOp(intended, rng)
			eng.Execute(th, op)
			done := th.Now()
			buf = append(buf, sample{done, done - intended})
			if t == 0 && rb != nil && done >= nextStep {
				rb.Step(th)
				// One step per crossing; skip windows thread 0 idled past.
				nextStep = (th.Now()/ec.Window + 1) * ec.Window
			}
		}
		samples[t] = buf
	})

	pt := ElasticPoint{
		Scenario: sc.Name,
		Engine:   el.Name(),
		Mode:     mode,
		Threads:  threads,
		Rate:     ec.Rate,
		Arrivals: totalArrivals,
		Horizon:  cfg.Horizon,
		FirstBad: -1,
		LastBad:  -1,
	}
	for t := 0; t < threads; t++ {
		pt.Completed += uint64(len(samples[t]))
		if now := env.Now(t); now > pt.Makespan {
			pt.Makespan = now
		}
	}
	span := max(pt.Makespan, cfg.Horizon)
	if span > 0 {
		pt.Throughput = float64(pt.Completed) * 1e6 / float64(span)
	}
	pt.Saturated = pt.Makespan > cfg.Horizon+cfg.Horizon/10

	// Cut the sojourn series into fixed windows by completion time.
	nw := int((span + ec.Window - 1) / ec.Window)
	perWin := make([][]int64, nw)
	var all []int64
	postStart := cfg.Horizon - cfg.Horizon/4
	var post []int64
	for t := range samples {
		for _, s := range samples[t] {
			w := int(s.done / ec.Window)
			if w >= nw {
				w = nw - 1
			}
			perWin[w] = append(perWin[w], s.sojourn)
			all = append(all, s.sojourn)
			if s.done > postStart && s.done <= cfg.Horizon {
				post = append(post, s.sojourn)
			}
		}
	}
	pt.Sojourn = sojournStatFromSamples(all)
	pt.PostP99 = quantileOf(post, 0.99)
	pt.PostThroughput = float64(len(post)) * 1e6 / float64(cfg.Horizon-postStart)
	lastNonEmpty := -1
	for w := 0; w < nw; w++ {
		start := int64(w) * ec.Window
		end := min(start+ec.Window, span)
		win := ElasticWindow{
			Start: start,
			End:   end,
			Ops:   uint64(len(perWin[w])),
			P99:   quantileOf(perWin[w], 0.99),
		}
		if end > start {
			win.Throughput = float64(win.Ops) * 1e6 / float64(end-start)
		}
		win.OK = int64(win.P99) <= ec.SLOThreshold
		if win.Ops > 0 {
			lastNonEmpty = w
			if !win.OK {
				pt.BadWindows++
				if pt.FirstBad < 0 {
					pt.FirstBad = w
				}
				pt.LastBad = w
			}
		}
		pt.Windows = append(pt.Windows, win)
	}
	pt.Healed = pt.BadWindows > 0 && lastNonEmpty >= 0 && pt.Windows[lastNonEmpty].OK

	topo := el.Topology()
	pt.Topology = &topo
	if rb != nil {
		pt.Decisions = rb.Journal().Entries()
	}
	if inst.Check != nil {
		pt.InvariantViolation = inst.Check(env.Boot())
	}
	return pt, nil
}

// sojournStatFromSamples computes the deep-tail summary directly from
// raw samples (the windowed runner keeps them anyway; no recorder
// histogram needed, so quantiles here are exact, not bucketed).
func sojournStatFromSamples(s []int64) SojournStat {
	if len(s) == 0 {
		return SojournStat{}
	}
	sorted := append([]int64(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
	}
	q := func(p float64) uint64 { return quantileSorted(sorted, p) }
	return SojournStat{
		Count: uint64(len(sorted)),
		Mean:  sum / float64(len(sorted)),
		P50:   q(0.50),
		P90:   q(0.90),
		P99:   q(0.99),
		P999:  q(0.999),
		P9999: q(0.9999),
		Max:   uint64(sorted[len(sorted)-1]),
	}
}

func quantileOf(s []int64, p float64) uint64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]int64(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []int64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return uint64(sorted[i])
}

// ElasticReport is the three-mode healing comparison.
type ElasticReport struct {
	Figure       string         `json:"figure"`
	Scenario     string         `json:"scenario"`
	Threads      int            `json:"threads"`
	Seed         uint64         `json:"seed"`
	Horizon      int64          `json:"horizon"`
	Rate         float64        `json:"rate"`
	Window       int64          `json:"window"`
	SLOThreshold int64          `json:"slo_threshold"`
	Gate         float64        `json:"gate"`
	Points       []ElasticPoint `json:"-"`
}

// RunElasticFigure runs the hot-shard-healing figure: the same elastic
// hash table measured balanced (no skew, topology untouched), static
// (drifting 90% skew with the topology frozen — the hot shard forms and
// stays), and elastic (same skew with the rebalancer on). Modes run
// concurrently when cfg.Parallel allows; each owns a fresh
// deterministic environment, so results are identical at any
// parallelism.
func RunElasticFigure(threads int, cfg Config, ec ElasticRunConfig) (*ElasticReport, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = ElasticDefaultHorizon
	}
	cfg.normalize()
	ec.normalize(cfg.Horizon)
	balanced := ElasticScenario(40, ElasticBuckets, ElasticMaxShards, ElasticInitialShards, 0, cfg.Horizon)
	skewed := ElasticScenario(40, ElasticBuckets, ElasticMaxShards, ElasticInitialShards, ElasticHotPct, cfg.Horizon)
	modes := []struct {
		sc        Scenario
		mode      string
		rebalance bool
	}{
		{balanced, "balanced", false},
		{skewed, "static", false},
		{skewed, "elastic", true},
	}
	rep := &ElasticReport{
		Figure:       "elastic",
		Scenario:     skewed.Name,
		Threads:      threads,
		Seed:         cfg.Seed,
		Horizon:      cfg.Horizon,
		Rate:         ec.Rate,
		Window:       ec.Window,
		SLOThreshold: ec.SLOThreshold,
		Gate:         elasticGate,
		Points:       make([]ElasticPoint, len(modes)),
	}
	err := forEachPoint(len(modes), cfg.Parallel, func(i int) (err error) {
		rep.Points[i], err = RunPointElastic(modes[i].sc, modes[i].mode, modes[i].rebalance, threads, cfg, ec)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Check verifies the healing story the figure exists to demonstrate:
// no invariant violation, the skew really hurt the frozen topology, the
// rebalancer actually split, the verdict flipped back, and post-heal
// throughput recovered to at least elasticGate × the balanced run's.
func (r *ElasticReport) Check() error {
	byMode := map[string]*ElasticPoint{}
	for i := range r.Points {
		byMode[r.Points[i].Mode] = &r.Points[i]
	}
	balanced, static, elastic := byMode["balanced"], byMode["static"], byMode["elastic"]
	if balanced == nil || static == nil || elastic == nil {
		return fmt.Errorf("elastic report missing a mode (have %d points)", len(r.Points))
	}
	var fails []string
	if err := CheckResults(r.Results()); err != nil {
		fails = append(fails, err.Error())
	}
	if static.BadWindows == 0 {
		fails = append(fails, "static: skew never degraded the frozen topology (no bad windows — raise the rate?)")
	}
	if elastic.Topology == nil || elastic.Topology.Splits == 0 {
		fails = append(fails, "elastic: rebalancer never split a shard")
	}
	if elastic.BadWindows > 0 && !elastic.Healed {
		fails = append(fails, fmt.Sprintf("elastic: verdict never flipped back (last bad window %d)", elastic.LastBad))
	}
	if elastic.PostThroughput < elasticGate*balanced.PostThroughput {
		fails = append(fails, fmt.Sprintf("elastic: post-heal throughput %.1f < %.2fx balanced %.1f",
			elastic.PostThroughput, elasticGate, balanced.PostThroughput))
	}
	if len(fails) > 0 {
		return errors.New(strings.Join(fails, "\n  "))
	}
	return nil
}

// Encode renders the report as JSON Lines (header, then one line per
// mode): the format checked in under bench/ELASTIC_sweep.jsonl.
func (r *ElasticReport) Encode() ([]byte, error) { return encodeJSONL(r, r.Points) }

// Decode is the inverse of Encode.
func (r *ElasticReport) Decode(data []byte) error { return decodeJSONL(data, r, &r.Points) }

// Text renders the report as a mode-per-block table with the window
// verdict strip ('.' ok, 'X' missed, '-' empty).
func (r *ElasticReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elastic: hot-shard healing, %d threads, rate %.0f, horizon %d, window %d, p99 SLO %d, seed %d\n\n",
		r.Threads, r.Rate, r.Horizon, r.Window, r.SLOThreshold, r.Seed)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%s (%s):\n", p.Mode, p.Scenario)
		sat := ""
		if p.Saturated {
			sat = "  SATURATED"
		}
		fmt.Fprintf(&b, "  achieved %.1f ops/Mcycle, p99 %d, post-phase %.1f ops/Mcycle p99 %d%s\n",
			p.Throughput, p.Sojourn.P99, p.PostThroughput, p.PostP99, sat)
		strip := make([]byte, len(p.Windows))
		for i, w := range p.Windows {
			switch {
			case w.Ops == 0:
				strip[i] = '-'
			case w.OK:
				strip[i] = '.'
			default:
				strip[i] = 'X'
			}
		}
		fmt.Fprintf(&b, "  windows  [%s]  bad=%d healed=%v\n", strip, p.BadWindows, p.Healed)
		if p.Topology != nil {
			fmt.Fprintf(&b, "  topology %d/%d shards active, epoch %d, splits=%d merges=%d moved=%d reroutes=%d\n",
				p.Topology.Ring.Active, p.Topology.Provisioned, p.Topology.Ring.Epoch,
				p.Topology.Splits, p.Topology.Merges, p.Topology.MovedKeys, p.Topology.Reroutes)
		}
		for _, d := range p.Decisions {
			if d.Action == "hold" {
				continue
			}
			fmt.Fprintf(&b, "  decision @%d: %s %d->%d (%s) hottest %.2f vs fair %.2f, moved %d\n",
				d.Now, d.Action, d.From, d.To, d.Reason, d.HottestShare, d.FairShare, d.MovedKeys)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Results flattens the report into standard Result rows (mode folded
// into the scenario label) so `-fig elastic` composes with the generic
// figure renderers.
func (r *ElasticReport) Results() []Result {
	out := make([]Result, 0, len(r.Points))
	for _, p := range r.Points {
		out = append(out, Result{
			Scenario:           fmt.Sprintf("%s@%s", p.Scenario, p.Mode),
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
