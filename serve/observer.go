package serve

import (
	"hcf/internal/harness"
	"hcf/internal/metrics"
)

// HotLineLimit is how many hot lines each driver tick publishes.
const HotLineLimit = 16

// Server implements harness.OpenLoopObserver: pass it as
// OpenLoopConfig.Observer and every endpoint goes live for the duration of
// the run, fed by structures that are safe to read from host goroutines
// while the simulation is in flight.
var _ harness.OpenLoopObserver = (*Server)(nil)

// ObserveOpenLoop attaches a Source over the run's live structures. It
// is called by the harness before the run starts.
func (s *Server) ObserveOpenLoop(v harness.OpenLoopView) {
	s.traceCol.Store(v.Trace)
	s.Attach(Source{
		Report: func() *metrics.Report {
			rep := metrics.BuildReport(v.Service, v.Sampler, v.Scenario, v.Engine, v.Threads)
			if v.SLO != nil {
				snap := v.SLO.Snapshot()
				rep.SLO = &snap
			}
			rep.Trace = v.Trace.Health()
			return &rep
		},
		Sojourn: func() []harness.ClassSojourn {
			_, rows := harness.SojournOf(v.Sojourn)
			return rows
		},
		Backlog: v.Backlog,
	})
}

// OpenLoopTick runs on the simulator's driver thread at sampler cadence,
// while every other virtual thread is parked — the only mid-run context
// where aggregating trace events is safe. It publishes the hot-line
// snapshot and advances the virtual-now gauge. It charges no simulated
// cycles, so an attached server never changes results.
func (s *Server) OpenLoopTick(now int64) {
	s.lastTick.Store(now)
	if col := s.traceCol.Load(); col != nil {
		s.PublishHotLines(col.HotLines(HotLineLimit))
	}
}
