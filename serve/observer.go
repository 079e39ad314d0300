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

// ObserveOpenLoop wires all providers to the run's live structures. It is
// called by the harness before the run starts.
func (s *Server) ObserveOpenLoop(v harness.OpenLoopView) {
	s.SetMeta(v.Scenario, v.Engine, v.Threads)
	s.SetBacklog(v.Backlog)
	service, sampler := v.Service, v.Sampler
	sloTracker := v.SLO
	col := v.Trace
	scenario, engine, threads := v.Scenario, v.Engine, v.Threads

	s.SetReport(func() *metrics.Report {
		rep := metrics.BuildReport(service, sampler, scenario, engine, threads)
		if sloTracker != nil {
			snap := sloTracker.Snapshot()
			rep.SLO = &snap
		}
		if col != nil {
			rep.Trace = &metrics.TraceHealth{
				Starts:   col.Starts(),
				Retained: uint64(col.Retained()),
				Dropped:  col.Dropped(),
			}
		}
		return &rep
	})
	if sloTracker != nil {
		s.SetSLO(func() *metrics.SLOSnapshot {
			snap := sloTracker.Snapshot()
			return &snap
		})
	}
	s.SetShards(func() []metrics.GroupCounters {
		return service.Counters().ByGroup
	})
	sojourn := v.Sojourn
	s.SetSojourn(func() []harness.ClassSojourn {
		_, rows := harness.SojournOf(sojourn)
		return rows
	})
	if col != nil {
		s.SetTraceHealth(func() *metrics.TraceHealth {
			return &metrics.TraceHealth{
				Starts:   col.Starts(),
				Retained: uint64(col.Retained()),
				Dropped:  col.Dropped(),
			}
		})
	}
	s.mu.Lock()
	s.traceCol = col
	s.mu.Unlock()
}

// OpenLoopTick runs on the simulator's driver thread at sampler cadence,
// while every other virtual thread is parked — the only mid-run context
// where aggregating trace events is safe. It publishes the hot-line
// snapshot and advances the virtual-now gauge. It charges no simulated
// cycles, so an attached server never changes results.
func (s *Server) OpenLoopTick(now int64) {
	s.lastTick.Store(now)
	s.mu.RLock()
	col := s.traceCol
	s.mu.RUnlock()
	if col != nil {
		s.PublishHotLines(col.HotLines(HotLineLimit))
	}
}
