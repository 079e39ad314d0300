package harness

// The wall-clock method shared by the native and kv figures: inputs are
// drawn from seeded generators before the clock starts, clients start
// together, and a figure that repeats fixed-size rounds reports their
// median.

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hcf/internal/workload"
)

// Operation kinds in an encoded stream op (key<<2 | kind): the kinds of
// workload.UpdateMix, which are also the kv figure's class indexes.
const (
	opRead   = 0 // hashtable get, pqueue peek-min, kv get
	opWrite  = 1 // hashtable put, pqueue insert, kv put
	opDelete = 2 // hashtable delete, pqueue extract-min, kv delete
)

// drawOps draws n encoded ops from rng, each a key from keys and then a
// kind from mix.
func drawOps(n int, keys workload.KeyGen, mix *workload.Mix, rng *rand.Rand) []uint64 {
	ops := make([]uint64, n)
	for i := range ops {
		k := keys.Next(rng)
		ops[i] = k<<2 | uint64(mix.Pick(rng))
	}
	return ops
}

// runClients starts n client goroutines, releases them together and
// waits for all of them. Client i runs fn(i, start), where start is the
// release time. It returns the wall time from the release to the last
// client's return, and every client's error joined.
func runClients(n int, fn func(i int, start time.Time) error) (time.Duration, error) {
	errs := make([]error, n)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	var start time.Time
	ready.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			ready.Done()
			<-release
			errs[i] = fn(i, start)
		}(i)
	}
	ready.Wait()
	start = time.Now()
	close(release)
	done.Wait()
	return time.Since(start), errors.Join(errs...)
}

// roundLoop runs fn(0), fn(1), ... until the measuring time would pass
// budget: a round starts only if the previous round's duration still
// fits. At least minRounds rounds run.
func roundLoop(budget time.Duration, minRounds int, fn func(r int)) {
	start := time.Now()
	var last time.Duration
	for r := 0; r < minRounds || time.Since(start)+last <= budget; r++ {
		t := time.Now()
		fn(r)
		last = time.Since(t)
	}
}

// Quartiles returns the first quartile, median and third quartile of
// xs, interpolating between order statistics (the median of an even
// count is the mean of the middle two); NaN for no values. xs is not
// reordered.
func Quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// probeTime is how long each half of EffectiveParallelism runs.
const probeTime = 20 * time.Millisecond

// EffectiveParallelism measures how many CPUs the process gets right
// now, which GOMAXPROCS and NumCPU do not show on a host that
// time-slices its containers. It times a fixed CPU-bound loop, sized to
// take about 20 ms, on one goroutine and then on GOMAXPROCS goroutines
// at once, and returns GOMAXPROCS × t1 / tN: about GOMAXPROCS when every
// goroutine had a CPU of its own, about 1 when they shared one. It is
// pure computation: no syscalls, no pinning, no setting changed.
func EffectiveParallelism() float64 {
	start := time.Now()
	return parallelism(runtime.GOMAXPROCS(0), func() time.Duration { return time.Since(start) }, spinOn)
}

// parallelism is EffectiveParallelism over a clock and a loop runner:
// run(g, n) runs n iterations of the loop on each of g goroutines and
// returns when all are done. The one-goroutine run doubles n until it
// takes probeTime on now's clock; the procs-goroutine run then repeats
// that n.
func parallelism(procs int, now func() time.Duration, run func(g, n int)) float64 {
	var t1 time.Duration
	n := 1 << 12
	for ; ; n *= 2 {
		t := now()
		run(1, n)
		if t1 = now() - t; t1 >= probeTime {
			break
		}
	}
	if procs <= 1 {
		return 1
	}
	t := now()
	run(procs, n)
	return float64(procs) * float64(t1) / float64(now()-t)
}

// spinSink keeps the probe loop's result alive.
var spinSink atomic.Uint64

// spinOn runs n xorshift steps on each of g goroutines.
func spinOn(g, n int) {
	var wg sync.WaitGroup
	wg.Add(g)
	for i := 0; i < g; i++ {
		go func() {
			defer wg.Done()
			x := uint64(n) | 1
			for j := 0; j < n; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
}

// Regime names the parallelism a reading p, taken at GOMAXPROCS procs,
// says the host gave: the whole number of CPUs nearest to p, from 1 to
// procs (a reading above procs means the one-goroutine half was
// slowed). Readings from different regimes measured different machines.
func Regime(p float64, procs int) int {
	return min(max(1, int(math.Round(p))), max(1, procs))
}
