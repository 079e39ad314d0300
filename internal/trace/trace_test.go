package trace

import (
	"strings"
	"testing"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/htm"
	"hcf/internal/memsim"
)

type incOp struct{ addr memsim.Addr }

func (o incOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o incOp) Class() int { return 0 }

func tracedRun(t *testing.T, threads, perThread int, limit int) (*Collector, uint64) {
	t.Helper()
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw, err := core.New(env, core.Config{Policies: []core.Policy{{
		TryPrivateTrials:   2,
		TryVisibleTrials:   2,
		TryCombiningTrials: 4,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{Limit: limit}
	fw.SetTracer(col)
	counter := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < perThread; i++ {
			fw.Execute(th, incOp{addr: counter})
		}
	})
	return col, env.Boot().Load(counter)
}

func TestCollectorCountsStartsAndDones(t *testing.T) {
	const threads, perThread = 8, 25
	col, final := tracedRun(t, threads, perThread, 0)
	if final != threads*perThread {
		t.Fatalf("counter = %d", final)
	}
	if col.Starts() != threads*perThread {
		t.Fatalf("starts = %d, want %d", col.Starts(), threads*perThread)
	}
	var dones uint64
	for _, ev := range col.Events() {
		if ev.Kind == core.TraceDone {
			dones++
		}
	}
	if dones != threads*perThread {
		t.Fatalf("done events = %d, want %d", dones, threads*perThread)
	}
}

func TestEventStreamStructure(t *testing.T) {
	col, _ := tracedRun(t, 4, 20, 0)
	// Per thread: every op's first event is start, last is done; attempts
	// and announces sit in between.
	perThread := map[int][]core.TraceEvent{}
	for _, ev := range col.Events() {
		perThread[ev.Thread] = append(perThread[ev.Thread], ev)
	}
	for tid, evs := range perThread {
		depth := 0
		for i, ev := range evs {
			switch ev.Kind {
			case core.TraceStart:
				if depth != 0 {
					t.Fatalf("thread %d event %d: nested start", tid, i)
				}
				depth = 1
			case core.TraceDone:
				if depth != 1 {
					t.Fatalf("thread %d event %d: done without start", tid, i)
				}
				depth = 0
			case core.TraceAttempt, core.TraceAnnounce, core.TraceSelect,
				core.TraceLock, core.TraceHelped:
				if depth != 1 {
					t.Fatalf("thread %d event %d: %s outside an operation", tid, i, ev.Kind)
				}
			}
		}
		if depth != 0 {
			t.Fatalf("thread %d ended mid-operation", tid)
		}
	}
}

func TestLimitBoundsRetentionNotCounters(t *testing.T) {
	// Limit is a per-thread flight-recorder ring: 6 threads x 10 newest.
	col, _ := tracedRun(t, 6, 30, 10)
	if len(col.Events()) != 60 {
		t.Fatalf("retained %d events, want 60 (10 per thread)", len(col.Events()))
	}
	if col.Retained() != 60 {
		t.Fatalf("Retained() = %d, want 60", col.Retained())
	}
	if col.Starts() != 180 {
		t.Fatalf("starts = %d, want 180 (aggregation must continue)", col.Starts())
	}
	// The ring keeps the newest events: each thread's final event must be
	// its last op's done.
	last := map[int]core.TraceEvent{}
	for _, ev := range col.Events() {
		last[ev.Thread] = ev
	}
	for tid, ev := range last {
		if ev.Kind != core.TraceDone {
			t.Fatalf("thread %d last retained event is %s, want done", tid, ev.Kind)
		}
	}
}

// TestDroppedEventsReported is the regression test for the silent-drop bug:
// a Collector with a Limit used to discard events past the limit without any
// trace of having done so, so a truncated timeline was indistinguishable
// from a complete one. Dropped() and Summary() must now report the count.
func TestDroppedEventsReported(t *testing.T) {
	col, _ := tracedRun(t, 6, 30, 10)
	if got := len(col.Events()); got != 60 {
		t.Fatalf("retained %d events, want 60 (10 per thread)", got)
	}
	dropped := col.Dropped()
	if dropped == 0 {
		t.Fatal("Dropped() = 0 after exceeding Limit; drops must be counted")
	}
	// Every op emits at least start+done, so 180 ops emit >= 360 events;
	// 60 were retained, the rest dropped.
	if dropped < 300 {
		t.Fatalf("Dropped() = %d, want >= 300", dropped)
	}
	sum := col.Summary()
	if !strings.Contains(sum, "events dropped at Limit=10:") {
		t.Fatalf("Summary does not report dropped events:\n%s", sum)
	}

	// No limit => no drops, and no dropped line in the summary.
	unlimited, _ := tracedRun(t, 2, 5, 0)
	if got := unlimited.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d without a Limit, want 0", got)
	}
	if strings.Contains(unlimited.Summary(), "events dropped") {
		t.Fatal("Summary mentions drops when none occurred")
	}
}

func TestSummaryAndTimelineRender(t *testing.T) {
	col, _ := tracedRun(t, 8, 25, 0)
	sum := col.Summary()
	for _, want := range []string{"operations started: 200", "TryPrivate", "completions by phase"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
	tl := col.FormatTimeline(5)
	if lines := strings.Count(tl, "\n"); lines != 5 {
		t.Fatalf("timeline has %d lines, want 5:\n%s", lines, tl)
	}
	if !strings.HasPrefix(tl, "t") {
		t.Fatalf("timeline format: %q", tl)
	}
}

func TestTraceKindStrings(t *testing.T) {
	want := map[engine.TraceKind]string{
		core.TraceStart:     "start",
		core.TraceAttempt:   "attempt",
		core.TraceAnnounce:  "announce",
		core.TraceSelect:    "select",
		core.TraceLock:      "lock",
		core.TraceDone:      "done",
		core.TraceHelped:    "helped",
		engine.TraceKind(0): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestAttemptOutcomesRecorded(t *testing.T) {
	col, _ := tracedRun(t, 12, 30, 0)
	commits := uint64(0)
	aborts := uint64(0)
	for _, ev := range col.Events() {
		if ev.Kind == core.TraceAttempt {
			if ev.Reason == htm.ReasonNone {
				commits++
			} else {
				aborts++
			}
		}
	}
	if commits == 0 {
		t.Fatal("no committed attempts recorded")
	}
	if aborts == 0 {
		t.Fatal("no aborted attempts recorded under contention")
	}
}

// TestClassAttribution pins the per-class aggregation the policy autotuner
// consumes: attempts (with conflict attribution) and combiner selections
// are charged to the class of the thread's current operation.
func TestClassAttribution(t *testing.T) {
	col := &Collector{}
	// A class-1 operation: one conflict abort on line 5 (writer 2), one
	// commit, and a combiner selection of 3 operations.
	col.Trace(core.TraceEvent{Thread: 0, Kind: core.TraceStart, Class: 1, Peer: -1})
	col.Trace(core.TraceEvent{Thread: 0, Kind: core.TraceAttempt,
		Phase: core.PhaseTryPrivate, Reason: htm.ReasonConflict, Line: 5, Peer: 2})
	col.Trace(core.TraceEvent{Thread: 0, Kind: core.TraceAttempt,
		Phase: core.PhaseTryPrivate, Reason: htm.ReasonNone, Peer: -1})
	col.Trace(core.TraceEvent{Thread: 0, Kind: core.TraceSelect, N: 3, Peer: -1})
	// A class-0 operation on another thread: a selection of 1.
	col.Trace(core.TraceEvent{Thread: 1, Kind: core.TraceStart, Class: 0, Peer: -1})
	col.Trace(core.TraceEvent{Thread: 1, Kind: core.TraceSelect, N: 1, Peer: -1})

	ca := col.ClassAttempts()
	if len(ca) != 2 {
		t.Fatalf("ClassAttempts covers %d classes, want 2", len(ca))
	}
	if got := ca[1][core.PhaseTryPrivate][htm.ReasonConflict]; got != 1 {
		t.Errorf("class 1 private conflicts = %d, want 1", got)
	}
	if got := ca[1][core.PhaseTryPrivate][htm.ReasonNone]; got != 1 {
		t.Errorf("class 1 private commits = %d, want 1", got)
	}
	if got := ca[0][core.PhaseTryPrivate][htm.ReasonConflict]; got != 0 {
		t.Errorf("class 0 inherited class 1's conflict: %d", got)
	}

	cs := col.ClassSelections()
	if len(cs) != 2 {
		t.Fatalf("ClassSelections covers %d classes, want 2", len(cs))
	}
	if cs[1] != [2]uint64{1, 3} {
		t.Errorf("class 1 selections = %v, want {1,3}", cs[1])
	}
	if cs[0] != [2]uint64{1, 1} {
		t.Errorf("class 0 selections = %v, want {1,1}", cs[0])
	}

	hot := col.ClassHotLines(1, 4)
	if len(hot) != 1 || hot[0].Line != 5 || hot[0].Aborts != 1 || hot[0].TopWriter != 2 {
		t.Errorf("ClassHotLines(1) = %+v", hot)
	}
	if got := col.ClassHotLines(0, 4); len(got) != 0 {
		t.Errorf("ClassHotLines(0) = %+v, want empty", got)
	}
}
