package kvstore

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcf/internal/workload"
)

// runWorkers splits n operations across g goroutines, each with its own
// handle and generator. op reports whether it wrote. runWorkers returns
// the wall time the goroutines took together and the number of writes.
func runWorkers(b *testing.B, s *Store, g, n int, op func(h *Handle, r *rand.Rand) (bool, error)) (time.Duration, int) {
	hs := make([]*Handle, g)
	for i := range hs {
		hs[i] = s.MustHandle()
	}
	var wg sync.WaitGroup
	var writes atomic.Int64
	b.ResetTimer()
	t0 := time.Now()
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h *Handle) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(i), 0xBE7))
			w := int64(0)
			defer func() { writes.Add(w) }()
			for j := i; j < n; j += g {
				wrote, err := op(h, r)
				if err != nil {
					b.Error(err)
					return
				}
				if wrote {
					w++
				}
			}
		}(i, h)
	}
	wg.Wait()
	wall := time.Since(t0)
	b.StopTimer()
	for _, h := range hs {
		h.Release()
	}
	return wall, int(writes.Load())
}

// reportFlushes reports how many writes each group commit carried.
func reportFlushes(b *testing.B, s *Store, before Stats, writes int) {
	after := s.Stats()
	if flushes := after.Flushes - before.Flushes; flushes > 0 {
		b.ReportMetric(float64(writes)/float64(flushes), "writes/flush")
	}
}

// BenchmarkKVMixed is perfbench's kv-mixed in miniature: fsync off, two
// handles, 50% Get / 50% Put over Zipf(0.9) keys that are all prefilled
// with 128-byte values.
func BenchmarkKVMixed(b *testing.B) {
	const keys = 1 << 14
	s, err := Open(b.TempDir(), Config{DisableSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 128)
	h := s.MustHandle()
	for k := uint64(0); k < keys; k++ {
		if _, err := h.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	h.Release()
	zipf, err := workload.NewZipf(keys, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	before := s.Stats()
	_, writes := runWorkers(b, s, 2, b.N, func(h *Handle, r *rand.Rand) (bool, error) {
		k := zipf.Next(r)
		if r.IntN(2) == 0 {
			_, ok, err := h.Get(k)
			if err == nil && !ok {
				b.Errorf("prefilled key %d missing", k)
			}
			return false, err
		}
		_, err := h.Put(k, val)
		return true, err
	})
	reportFlushes(b, s, before, writes)
}

// BenchmarkKVPut is kv-mixed's prefill: one handle without fsync putting
// 128-byte values under 64K keys in turn, so every put is a batch of
// one and its cost is the uncontended group-commit path.
func BenchmarkKVPut(b *testing.B) {
	const keys = 1 << 16
	s, err := Open(b.TempDir(), Config{DisableSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	defer h.Release()
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Put(uint64(i%keys), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVGroupCommitFsync measures group commit where it pays: fsync
// on, eight goroutines issuing puts over four shards.
func BenchmarkKVGroupCommitFsync(b *testing.B) {
	benchGroupCommit(b, Config{})
}

// BenchmarkKVGroupCommitNoSync is the same contended put load with fsync
// off, where batches share no flush and the commit delay defaults off.
func BenchmarkKVGroupCommitNoSync(b *testing.B) {
	benchGroupCommit(b, Config{DisableSync: true})
}

// benchGroupCommit runs eight goroutines issuing puts over the store's
// four default shards and reports writes/flush and ops/s.
func benchGroupCommit(b *testing.B, cfg Config) {
	s, err := Open(b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 128)
	before := s.Stats()
	wall, writes := runWorkers(b, s, 8, b.N, func(h *Handle, r *rand.Rand) (bool, error) {
		_, err := h.Put(r.Uint64N(1<<14), val)
		return true, err
	})
	reportFlushes(b, s, before, writes)
	b.ReportMetric(float64(b.N)/wall.Seconds(), "ops/s")
}
