package pqueue

import (
	"math/rand/v2"
	"sort"
	"testing"

	"hcf/internal/native"
)

// checkHeapInvariant verifies every parent is <= both children over the
// live prefix of the heap array, and that the root mirror PeekMin reads
// equals heap[0] whenever the queue is non-empty.
func checkHeapInvariant(t *testing.T, q *Queue, step int) {
	t.Helper()
	n := q.n.Load()
	if n > 0 {
		if r := q.root.Load(); r != q.heap[0] {
			t.Fatalf("step %d: root mirror %d != heap[0] %d (n=%d)", step, r, q.heap[0], n)
		}
	}
	for i := uint64(0); i < n; i++ {
		pv := q.heap[i]
		for _, c := range [2]uint64{2*i + 1, 2*i + 2} {
			if c < n {
				if cv := q.heap[c]; pv > cv {
					t.Fatalf("step %d: heap[%d]=%d > heap[%d]=%d (n=%d)", step, i, pv, c, cv, n)
				}
			}
		}
	}
}

// TestHeapInvariantProperty drives a long random insert/extract sequence
// and checks the structural heap invariant after every operation, plus
// extraction order against a sorted model at the end. This pins the
// hole-propagation sift rewrite: a missed final placement or a dropped
// level would corrupt parent/child ordering immediately.
func TestHeapInvariantProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xBADC0FFEE))
		q := New(512)
		var model []uint64
		for step := 0; step < 4000; step++ {
			if q.Len() < 512 && (q.Len() == 0 || rng.IntN(5) < 3) {
				k := rng.Uint64N(1 << 16)
				q.Insert(k)
				model = append(model, k)
			} else {
				v, ok := native.Unpack(q.ExtractMin())
				if !ok {
					t.Fatalf("seed %d step %d: ExtractMin empty with model size %d", seed, step, len(model))
				}
				mi := 0
				for j, m := range model {
					if m < model[mi] {
						mi = j
					}
				}
				if v != model[mi] {
					t.Fatalf("seed %d step %d: ExtractMin = %d, model min = %d", seed, step, v, model[mi])
				}
				model = append(model[:mi], model[mi+1:]...)
			}
			checkHeapInvariant(t, q, step)
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, q.Len(), len(model))
			}
		}
		// Drain: remaining keys must come out in sorted order.
		sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
		for i, want := range model {
			v, ok := native.Unpack(q.ExtractMin())
			if !ok || v != want {
				t.Fatalf("seed %d drain %d: got (%d,%v), want (%d,true)", seed, i, v, ok, want)
			}
			checkHeapInvariant(t, q, -i)
		}
	}
}
