package pqueue

import (
	"math/rand/v2"
	"sort"
	"testing"

	"hcf/internal/native"
)

// checkHeapInvariant verifies the queue's shape: n counts the buffered
// and the heap keys, the front buffer is in descending order with every
// buffered key <= heap[0], every heap parent is <= both children, and the
// root mirror PeekMin reads equals the overall minimum whenever the queue
// is non-empty.
func checkHeapInvariant(t *testing.T, q *Queue, step int) {
	t.Helper()
	n, nf := q.n.Load(), q.nf
	if nf > frontKeys || nf > n {
		t.Fatalf("step %d: %d buffered keys (n=%d, buffer size %d)", step, nf, n, frontKeys)
	}
	nh := n - nf
	if nh > uint64(len(q.heap)) {
		t.Fatalf("step %d: %d heap keys in a %d-key heap (n=%d, nf=%d)", step, nh, len(q.heap), n, nf)
	}
	f := q.front[:nf]
	for i := 1; i < len(f); i++ {
		if f[i-1] < f[i] {
			t.Fatalf("step %d: buffer not descending: front[%d]=%d < front[%d]=%d (nf=%d)", step, i-1, f[i-1], i, f[i], nf)
		}
	}
	if nf > 0 && nh > 0 && f[0] > q.heap[0] {
		t.Fatalf("step %d: buffered key %d > heap[0] %d", step, f[0], q.heap[0])
	}
	if n > 0 {
		min := q.heap[0]
		if nf > 0 {
			min = f[nf-1]
		}
		if r := q.root.Load(); r != min {
			t.Fatalf("step %d: root mirror %d != minimum %d (n=%d, nf=%d)", step, r, min, n, nf)
		}
	}
	for i := uint64(0); i < nh; i++ {
		pv := q.heap[i]
		for _, c := range [2]uint64{2*i + 1, 2*i + 2} {
			if c < nh {
				if cv := q.heap[c]; pv > cv {
					t.Fatalf("step %d: heap[%d]=%d > heap[%d]=%d (%d heap keys)", step, i, pv, c, cv, nh)
				}
			}
		}
	}
}

// TestHeapInvariantProperty drives a long random insert/extract sequence
// and checks the queue's shape after every operation, plus extraction
// order against a sorted model at the end. This pins the hole-propagation
// sifts and the front buffer: a missed final placement, a dropped level
// or a misplaced buffered key would break an ordering immediately.
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
