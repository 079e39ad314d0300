package memsim

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// pingPong runs rounds of th.Work(10) on every thread. With equal charges
// each charge makes another thread the minimum, so every scheduling point
// is a preemption.
func pingPong(e *DetEnv, rounds int) {
	e.Run(func(th *Thread) {
		for i := 0; i < rounds; i++ {
			th.Work(10)
		}
	})
}

// handoffRun is a small program with preemptions, a passive wait and a
// dormant sleeper; it returns the final clocks.
func handoffRun(e *DetEnv) []int64 {
	flag := e.Alloc(1)
	e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Work(5000)
			th.Store(flag, 1)
			return
		}
		th.SpinLoadUntilEq(flag, 1)
		for i := 0; i < 20; i++ {
			th.Work(int64(7 + th.ID()))
		}
	})
	clocks := make([]int64, e.NumThreads())
	for i := range clocks {
		clocks[i] = e.Now(i)
	}
	return clocks
}

// TestDetEnvReleasedAfterRun pins that pooled coroutines keep no DetEnv
// alive once its Run has returned. The finalizer sits on one of the env's
// L1 models, which only the env references: the env itself points to
// itself (its heap and its Threads do), and the collector never finalizes
// an object that reaches itself.
func TestDetEnvReleasedAfterRun(t *testing.T) {
	released := make(chan struct{})
	func() {
		e := NewDet(DetConfig{Threads: 4})
		runtime.SetFinalizer(e.caches[0], func(*l1Cache) { close(released) })
		handoffRun(e)
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("DetEnv still reachable after Run returned")
}

// TestDetEnvRunsDoNotLeakGoroutines pins that Runs reuse pooled
// coroutines: the goroutine count grows only to the peak number of virtual
// threads running at once.
func TestDetEnvRunsDoNotLeakGoroutines(t *testing.T) {
	pingPong(NewDet(DetConfig{Threads: 8}), 10)
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		pingPong(NewDet(DetConfig{Threads: 8}), 10)
	}
	if n := runtime.NumGoroutine(); n > base+8 {
		t.Errorf("100 Runs left %d goroutines, %d after the first", n, base)
	}
}

// TestDetEnvDeadlockThenRunAgain pins that the deadlock unwind retires
// every thread cleanly: a later Run, on coroutines the deadlocked one
// returned to the pool, matches a reference run.
func TestDetEnvDeadlockThenRunAgain(t *testing.T) {
	want := handoffRun(NewDet(DetConfig{Threads: 4}))
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "memsim: deadlock") {
				t.Fatalf("Run panicked with %q, want a memsim: deadlock report", msg)
			}
		}()
		e := NewDet(DetConfig{Threads: 4})
		flag := e.Alloc(1)
		e.Run(func(th *Thread) { th.SpinLoadUntilEq(flag, 1) })
	}()
	if got := handoffRun(NewDet(DetConfig{Threads: 4})); !slices.Equal(got, want) {
		t.Errorf("clocks after a deadlocked Run = %v, want %v", got, want)
	}
}

// TestDetEnvConcurrentRunsSharePool pins that envs running on several
// goroutines at once, as a parallel sweep's points do, share the coroutine
// pool without disturbing each other's schedules.
func TestDetEnvConcurrentRunsSharePool(t *testing.T) {
	want := handoffRun(NewDet(DetConfig{Threads: 4}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := handoffRun(NewDet(DetConfig{Threads: 4})); !slices.Equal(got, want) {
					t.Errorf("concurrent run clocks = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDetHandoff times virtual context switches: two threads
// alternating th.Work(10), so every charge is a preemption and ns/op is
// the cost of one switch.
func BenchmarkDetHandoff(b *testing.B) {
	e := NewDet(DetConfig{Threads: 2})
	b.ResetTimer()
	pingPong(e, b.N/2+1)
}
