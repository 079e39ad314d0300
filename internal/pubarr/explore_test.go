package pubarr

import (
	"testing"

	"hcf/internal/locks"
	"hcf/internal/memsim"
)

// scanClearHandshake runs the announced-slot reclamation protocol the
// engines build on this array: owners announce and park until a combiner
// signals completion; combiners — mutually excluded by a lock — scan, clear
// the slot, and only THEN publish the done signal. That ordering is the ABA
// defence this test pins: the owner cannot re-announce into its slot until
// the previous announcement's Clear has already happened, so a combiner
// preempted between Read and Clear can never wipe a fresh announcement it
// has not adopted. Reordering Clear after the done store reopens the window
// and deadlocks this test (a wiped, never-adopted announcement parks its
// owner forever), which the deterministic scheduler reports as a hang.
func scanClearHandshake(t *testing.T, env memsim.Env, combiners, rounds int) {
	t.Helper()
	n := env.NumThreads()
	owners := n - combiners
	a := New(env, n)
	lock := locks.NewTATAS(env)
	doneGen := make([]memsim.Addr, n) // combiner -> owner completion signal
	finished := env.Alloc(1)          // owners done with all rounds
	adopted := make([]int, n)         // combiner-side bookkeeping (under lock)
	for tid := range doneGen {
		doneGen[tid] = env.Alloc(memsim.WordsPerLine)
	}
	env.Run(func(th *memsim.Thread) {
		tid := th.ID()
		if tid < combiners {
			for {
				lock.Lock(th)
				for o := combiners; o < n; o++ {
					if a.Read(th, o) == 0 {
						continue
					}
					// Adopt: clear the slot first, publish done second.
					a.Clear(th, o)
					adopted[o]++
					th.Store(doneGen[o], uint64(adopted[o]))
				}
				lock.Unlock(th)
				if th.Load(finished) == uint64(owners) {
					return
				}
				th.Yield()
			}
		}
		for r := 1; r <= rounds; r++ {
			a.Announce(th, tid, uint64(tid)+1)
			th.SpinLoadUntilEq(doneGen[tid], uint64(r))
		}
		th.Add(finished, 1)
	})
	for o := combiners; o < n; o++ {
		if adopted[o] != rounds {
			t.Fatalf("owner %d: %d announcements adopted, want %d", o, adopted[o], rounds)
		}
		boot := env.Boot()
		if got := a.Read(boot, o); got != 0 {
			t.Fatalf("owner %d: slot left dirty (%d) after all rounds", o, got)
		}
	}
}

// TestExploredScanClearNoABA sweeps the handshake across adversarial
// schedules: forced preemptions land between the combiner's Read and Clear
// and between Clear and the done store — the reclamation windows of the
// flat-combining and HCF engines — and every announcement must still be
// adopted exactly once.
func TestExploredScanClearNoABA(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		env := memsim.NewDet(memsim.DetConfig{
			Threads: 6,
			Explore: memsim.ExploreConfig{Seed: seed, PreemptBudget: 64, JitterClass: 3},
		})
		scanClearHandshake(t, env, 2, 30)
	}
}

// TestRealScanClearNoABA runs the same handshake on the real backend for
// the race detector.
func TestRealScanClearNoABA(t *testing.T) {
	env := memsim.NewReal(memsim.RealConfig{Threads: 6})
	scanClearHandshake(t, env, 2, 50)
}
