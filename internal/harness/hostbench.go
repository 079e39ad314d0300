package harness

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// HostBenchKind is the Kind value RunHostBench stamps.
const HostBenchKind = "hcf-host-bench"

// HostBenchReport is the host-throughput record of one simulated sweep
// (bench/BENCH_sim.json). Throughput is simulated work done per host
// second, so the number is meaningful across horizon choices;
// regressions are judged on SimMcyclesPerHostSec.
type HostBenchReport struct {
	Kind       string   `json:"kind"`
	Note       string   `json:"note,omitempty"`
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
	// InvariantViolations lists the sweep points whose scenario check
	// failed; a clean run has none.
	InvariantViolations []string `json:"invariant_violations,omitempty"`
}

// RunHostBench times one figure sweep on the host clock.
func RunHostBench(f Figure, cfg Config) (*HostBenchReport, error) {
	start := time.Now()
	results, err := RunFigure(f, cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	r := &HostBenchReport{
		Kind:       HostBenchKind,
		Figure:     f.ID,
		Threads:    f.Threads,
		Engines:    f.Engines,
		Horizon:    cfg.Horizon,
		Seed:       cfg.Seed,
		Parallel:   cfg.Parallel,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WallSec:    wall,
		Points:     len(results),
	}
	var simCycles int64
	for _, res := range results {
		r.TotalOps += res.Ops
		simCycles += res.Cycles
		if res.InvariantViolation != "" {
			r.InvariantViolations = append(r.InvariantViolations, fmt.Sprintf("%s %s t=%d: %s",
				res.Scenario, res.Engine, res.Threads, res.InvariantViolation))
		}
	}
	if wall > 0 {
		r.SimMcyclesPerHostSec = float64(simCycles) / 1e6 / wall
		r.OpsPerHostSec = float64(r.TotalOps) / wall
	}
	return r, nil
}

// Encode renders the record as indented JSON.
func (r *HostBenchReport) Encode() ([]byte, error) { return encodeJSON(r) }

// Decode is the inverse of Encode, checking the record's kind.
func (r *HostBenchReport) Decode(data []byte) error {
	return decodeJSON(data, r, &r.Kind, HostBenchKind)
}

// Text renders the record as one summary line.
func (r *HostBenchReport) Text() string {
	return fmt.Sprintf("bench: %s, %d points in %.2fs: %.1f sim Mcycles/s, %.0f ops/s (GOMAXPROCS=%d)\n",
		r.Figure, r.Points, r.WallSec, r.SimMcyclesPerHostSec, r.OpsPerHostSec, r.GoMaxProcs)
}

// Check fails if any swept point violated its scenario invariant.
func (r *HostBenchReport) Check() error {
	if len(r.InvariantViolations) > 0 {
		return fmt.Errorf("invariant violations:\n  %s", strings.Join(r.InvariantViolations, "\n  "))
	}
	return nil
}

// hostBenchGate fails a record whose host throughput fell below 0.75x
// the baseline's for the same figure.
var hostBenchGate = Gate{Metric: "sim_mcycles_per_host_sec", HigherIsBetter: true, Tolerance: 1 / 0.75}

// Baseline implements GatedRecord.
func (r *HostBenchReport) Baseline() (Gate, []GatePoint) {
	return hostBenchGate, []GatePoint{{Key: r.Figure, Value: r.SimMcyclesPerHostSec}}
}
