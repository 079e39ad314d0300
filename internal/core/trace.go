package core

import (
	"hcf/internal/engine"
	"hcf/internal/htm"
	"hcf/internal/memsim"
)

// The lifecycle-event vocabulary is defined in internal/engine (shared by
// all engines); the framework re-exports it so existing consumers keep
// addressing it through core.
type (
	// TraceEvent is one framework lifecycle event.
	TraceEvent = engine.TraceEvent
	// Tracer receives lifecycle events.
	Tracer = engine.Tracer
	// TracedEngine is implemented by engines that emit lifecycle events.
	TracedEngine = engine.TracedEngine
)

// Trace event kinds (see engine.TraceKind for semantics).
const (
	TraceStart    = engine.TraceStart
	TraceAttempt  = engine.TraceAttempt
	TraceAnnounce = engine.TraceAnnounce
	TraceSelect   = engine.TraceSelect
	TraceLock     = engine.TraceLock
	TraceDone     = engine.TraceDone
	TraceHelped   = engine.TraceHelped
	TraceHelp     = engine.TraceHelp
)

// SetTracer installs a lifecycle tracer (nil disables).
func (f *Framework) SetTracer(tr Tracer) { f.tracer = tr }

var _ TracedEngine = (*Framework)(nil)

// SpanID builds the span id of thread t's seq-th operation: span ids are
// unique per run, dense per thread, and deterministic on the deterministic
// backend.
func SpanID(t int, seq uint64) uint64 { return engine.SpanID(t, seq) }

// fwEmitter adapts the framework to phases.Emitter without exporting
// emission methods on the public Framework type.
type fwEmitter struct{ f *Framework }

// Active implements phases.Emitter.
func (e fwEmitter) Active() bool { return e.f.tracer != nil }

// Emit implements phases.Emitter.
func (e fwEmitter) Emit(th *memsim.Thread, ev TraceEvent) { e.f.emit(th, ev) }

// EmitAttempt implements phases.Emitter.
func (e fwEmitter) EmitAttempt(th *memsim.Thread, phase Phase, reason htm.Reason) {
	e.f.emitAttempt(th, phase, reason)
}

// emit sends an event to the tracer if one is installed, stamping it with
// the thread, its local time, and its current operation span.
func (f *Framework) emit(th *memsim.Thread, ev TraceEvent) {
	if f.tracer == nil {
		return
	}
	t := th.ID()
	ev.Thread = t
	ev.Now = th.Now()
	ev.Span = f.descs[t].Span
	f.tracer.Trace(ev)
}

// emitAttempt emits a TraceAttempt with abort attribution: conflict aborts
// name the conflicting cache line and its last committed writer,
// lock-subscription aborts name the holder captured at the abort site.
func (f *Framework) emitAttempt(th *memsim.Thread, phase Phase, reason htm.Reason) {
	if f.tracer == nil {
		return
	}
	ev := TraceEvent{Kind: TraceAttempt, Phase: phase, Reason: reason, Peer: -1}
	switch reason {
	case htm.ReasonConflict, htm.ReasonLockHeld:
		info := f.eng.LastAbortInfo(th.ID())
		ev.Line = info.Line
		if reason == htm.ReasonConflict {
			ev.Peer = info.Writer
		} else {
			ev.Peer = info.Holder
		}
	}
	f.emit(th, ev)
}
