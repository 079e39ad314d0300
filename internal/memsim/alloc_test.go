package memsim

import "testing"

// TestAccessFastPathZeroAllocs asserts that the deterministic backend's
// charged access path (coherent loads and stores, including the cost model
// and L1 simulation) performs no heap allocations once the touched arena
// pages exist.
func TestAccessFastPathZeroAllocs(t *testing.T) {
	env := NewDet(DetConfig{Threads: 1})
	th := env.Boot()
	a := env.Alloc(WordsPerLine)
	b := env.Alloc(WordsPerLine)
	env.StoreWord(a, 0)
	env.StoreWord(b, 0)

	body := func() {
		th.Store(a, th.Load(a)+1)
		th.Store(b, th.Load(b)+1)
		th.Work(10)
		th.Yield()
	}
	body() // warm up page table and caches
	if avg := testing.AllocsPerRun(100, body); avg != 0 {
		t.Errorf("access fast path allocates %.1f objects per run, want 0", avg)
	}
}

// TestRunSteadyStateAllocs bounds the per-Run setup cost: the scheduler
// itself (heap, coroutine switches, passive waits) must not allocate per
// scheduling point — only the per-thread body setup at the start of Run may.
func TestRunSteadyStateAllocs(t *testing.T) {
	env := NewDet(DetConfig{Threads: 2})
	flag := env.Alloc(1)
	env.StoreWord(flag, 0)
	body := func(th *Thread) {
		if th.ID() == 0 {
			for i := 0; i < 50; i++ {
				th.Store(flag, uint64(i%2))
			}
			th.Store(flag, 7)
		} else {
			th.SpinLoadUntilEq(flag, 7)
		}
	}
	env.Run(body) // warm up
	env.ResetStats()
	const runs = 20
	avg := testing.AllocsPerRun(runs, func() {
		env.ResetStats()
		env.Run(body)
	})
	// Each Run hands its body to NumThreads pooled coroutines; allow a
	// small constant per thread but nothing proportional to the tens of
	// scheduling points.
	if avg > 8 {
		t.Errorf("Run allocates %.1f objects per invocation, want only per-goroutine setup", avg)
	}
}
