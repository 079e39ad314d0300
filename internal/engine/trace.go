package engine

import "hcf/internal/htm"

// TraceKind classifies engine lifecycle events.
type TraceKind uint8

// Trace event kinds.
const (
	// TraceStart: an operation entered Execute (Span and Class valid).
	TraceStart TraceKind = iota + 1
	// TraceAttempt: one speculative attempt finished (Phase and Reason
	// valid; Reason is htm.ReasonNone on commit). Conflict aborts carry the
	// conflicting cache line in Line and its last writer in Peer;
	// lock-subscription aborts carry the lock holder in Peer (-1 unknown).
	TraceAttempt
	// TraceAnnounce: the operation was published (Class valid).
	TraceAnnounce
	// TraceSelect: a combiner selected N announced operations (N valid).
	TraceSelect
	// TraceLock: the combiner acquired the data-structure lock.
	TraceLock
	// TraceDone: the operation completed (Phase = completion phase).
	TraceDone
	// TraceHelped: the operation was completed by another thread
	// (Phase = the helper's completion phase; Peer = the helper thread,
	// PeerSpan = the helper's own operation span).
	TraceHelped
	// TraceHelp: a combiner completed another thread's operation
	// (Phase = the completion phase; Peer = the helped thread,
	// PeerSpan = the helped operation's span). The TraceHelp/TraceHelped
	// pair is the causal combined-by edge between the two spans.
	TraceHelp
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceStart:
		return "start"
	case TraceAttempt:
		return "attempt"
	case TraceAnnounce:
		return "announce"
	case TraceSelect:
		return "select"
	case TraceLock:
		return "lock"
	case TraceDone:
		return "done"
	case TraceHelped:
		return "helped"
	case TraceHelp:
		return "help"
	default:
		return "unknown"
	}
}

// TraceEvent is one engine lifecycle event. Events are emitted from the
// thread named in Thread; in deterministic environments the stream is
// reproducible.
type TraceEvent struct {
	// Thread is the emitting thread id.
	Thread int
	// Now is the thread's local time at emission.
	Now int64
	// Kind classifies the event.
	Kind TraceKind
	// Class is the operation class (TraceStart / TraceAnnounce).
	Class int
	// Phase is the relevant phase (TraceAttempt / TraceDone / TraceHelped /
	// TraceHelp).
	Phase Phase
	// Reason is the abort reason of a failed attempt (TraceAttempt).
	Reason htm.Reason
	// N is the selection size (TraceSelect).
	N int
	// Span identifies the emitting thread's current operation. Every event
	// an operation's lifecycle produces carries the same span id, so the
	// stream reconstructs into one span per operation.
	Span uint64
	// Peer is the other thread of a causal edge: the conflicting writer or
	// lock holder (TraceAttempt aborts), the helped thread (TraceHelp), or
	// the helping thread (TraceHelped). -1 when unknown or not applicable.
	Peer int
	// PeerSpan is the span id on the other end of a help edge
	// (TraceHelp / TraceHelped).
	PeerSpan uint64
	// Line is the conflicting cache line (TraceAttempt with
	// Reason == htm.ReasonConflict).
	Line uint32
}

// Tracer receives lifecycle events. Implementations must be cheap; they
// run inline on the execution path. On the real backend they must also be
// safe for concurrent use.
type Tracer interface {
	Trace(ev TraceEvent)
}

// TracedEngine is implemented by engines that emit lifecycle trace events —
// the HCF framework and all five baseline engines.
type TracedEngine interface {
	// SetTracer installs tr (nil disables). Install before running ops.
	SetTracer(tr Tracer)
}

// SpanID builds the span id of thread t's seq-th operation: span ids are
// unique per run, dense per thread, and deterministic on the deterministic
// backend.
func SpanID(t int, seq uint64) uint64 { return uint64(t+1)<<32 | seq }
