package harness

// The wall-clock method shared by the native and kv figures: inputs are
// drawn from seeded generators before the clock starts, clients start
// together, and a figure that repeats fixed-size rounds reports their
// median.

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
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

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
