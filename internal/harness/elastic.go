package harness

import (
	"errors"
	"fmt"
	"strings"

	"hcf/internal/shard"
)

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

// elasticWindows is how many verdict windows an elastic run's horizon
// is cut into (the rebalancer steps at the same cadence). It is also the
// shortest horizon an elastic run accepts: a window of one cycle.
const elasticWindows = 16

// elasticWindow is the verdict window of an elastic run over horizon
// cycles, or an error naming the minimum when the horizon is too short
// to cut.
func elasticWindow(horizon int64) (int64, error) {
	if horizon < elasticWindows {
		return 0, fmt.Errorf("harness: elastic horizon %d is below the minimum of %d cycles", horizon, elasticWindows)
	}
	return horizon / elasticWindows, nil
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

// RunPointElastic measures one mode of the elastic figure on the HCF-E
// engine through the open-loop driver: arrivals, schedules and rng
// streams exactly as RunPointOpenLoop, operations drawn time-aware via
// Instance.NextOpAt so the skew can drift, and — when rebalance is set —
// thread 0 stepping a shard.Rebalancer once per window so topology
// decisions are part of the measured run (their lock-the-world cost is
// charged to the clock). The run's sojourn is cut into horizon/16
// windows by completion time; each window's p99, like the post-phase
// p99 and the Sojourn tails, is the log2-bucketed estimate of a metrics
// histogram, judged against DefaultOpenLoopSLOThreshold.
func RunPointElastic(sc Scenario, mode string, rebalance bool, threads int, cfg Config, ol OpenLoopConfig) (ElasticPoint, error) {
	cfg.normalize()
	window, err := elasticWindow(cfg.Horizon)
	if err != nil {
		return ElasticPoint{}, err
	}
	postStart := cfg.Horizon - cfg.Horizon/4
	run, err := runOpenLoop(sc, ElasticEngineName, threads, cfg, ol,
		&elasticCut{window: window, postStart: postStart, rebalance: rebalance})
	if err != nil {
		return ElasticPoint{}, err
	}
	op := run.pt
	pt := ElasticPoint{
		Scenario:           op.Scenario,
		Engine:             op.Engine,
		Mode:               mode,
		Threads:            threads,
		Rate:               op.Rate,
		Arrivals:           op.Arrivals,
		Completed:          op.Completed,
		Horizon:            op.Horizon,
		Makespan:           op.Makespan,
		Throughput:         op.Throughput,
		Saturated:          op.Saturated,
		Sojourn:            op.Sojourn,
		PostThroughput:     float64(run.post.Count) * 1e6 / float64(cfg.Horizon-postStart),
		PostP99:            run.post.Quantile(0.99),
		FirstBad:           -1,
		LastBad:            -1,
		InvariantViolation: op.InvariantViolation,
	}
	span := max(op.Makespan, op.Horizon)
	lastNonEmpty := -1
	for w := range run.windows {
		start := int64(w) * window
		end := min(start+window, span)
		win := ElasticWindow{
			Start: start,
			End:   end,
			Ops:   run.windows[w].Count,
			P99:   run.windows[w].Quantile(0.99),
		}
		if end > start {
			win.Throughput = float64(win.Ops) * 1e6 / float64(end-start)
		}
		win.OK = win.P99 <= DefaultOpenLoopSLOThreshold
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

	topo := run.eng.(*shard.Elastic).Topology()
	pt.Topology = &topo
	if run.rb != nil {
		pt.Decisions = run.rb.Journal().Entries()
	}
	return pt, nil
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
func RunElasticFigure(threads int, cfg Config) (*ElasticReport, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = ElasticDefaultHorizon
	}
	window, err := elasticWindow(cfg.Horizon)
	if err != nil {
		return nil, err
	}
	ol := OpenLoopConfig{Rate: ElasticDefaultRate}
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
		Rate:         ol.Rate,
		Window:       window,
		SLOThreshold: DefaultOpenLoopSLOThreshold,
		Gate:         elasticGate,
		Points:       make([]ElasticPoint, len(modes)),
	}
	err = forEachPoint(len(modes), cfg.Parallel, func(i int) (err error) {
		rep.Points[i], err = RunPointElastic(modes[i].sc, modes[i].mode, modes[i].rebalance, threads, cfg, ol)
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
