package pqueue

import (
	"slices"
	"sort"
	"testing"

	"hcf/internal/native"
)

// fuzzCapacity keeps the heap four levels deep, so short inputs reach
// every sift depth, the front buffer's spill (at frontKeys keys) and the
// full-queue boundary.
const fuzzCapacity = 16

// fuzzMaxOps caps the decoded sequence. Longer inputs reach no new state
// in a 16-key queue, and the cap keeps input minimization fast: the
// minimizer's candidate count grows with the square of the input length.
const fuzzMaxOps = 256

// FuzzPQueue decodes its input into an operation sequence over a small
// queue, one operation per byte: the low two bits pick the operation
// (0, 1 Insert; 2 ExtractMin; 3 PeekMin) and the high six bits are the
// Insert key, so duplicates are common. Every result is checked against
// a sorted-slice model, and after every operation the queue's shape is
// checked (checkHeapInvariant: buffer order, heap order, and the root
// mirror equal to the overall minimum while non-empty).
func FuzzPQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxOps {
			data = data[:fuzzMaxOps]
		}
		q := New(fuzzCapacity)
		var model []uint64 // ascending
		for step, b := range data {
			switch b & 3 {
			case 0, 1:
				k := uint64(b >> 2)
				if len(model) == fuzzCapacity {
					if !insertPanics(q, k) {
						t.Fatalf("step %d: Insert into a full queue did not panic", step)
					}
					break
				}
				if !native.UnpackBool(q.Insert(k)) {
					t.Fatalf("step %d: Insert(%d) reported failure", step, k)
				}
				model = slices.Insert(model, sort.Search(len(model), func(i int) bool { return model[i] > k }), k)
			case 2:
				v, ok := native.Unpack(q.ExtractMin())
				if len(model) == 0 {
					if ok {
						t.Fatalf("step %d: ExtractMin on empty queue = %d", step, v)
					}
					break
				}
				if !ok || v != model[0] {
					t.Fatalf("step %d: ExtractMin = (%d,%v), want (%d,true)", step, v, ok, model[0])
				}
				model = model[1:]
			case 3:
				v, ok := native.Unpack(q.PeekMin())
				if len(model) == 0 {
					if ok {
						t.Fatalf("step %d: PeekMin on empty queue = %d", step, v)
					}
					break
				}
				if !ok || v != model[0] {
					t.Fatalf("step %d: PeekMin = (%d,%v), want (%d,true)", step, v, ok, model[0])
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model %d", step, q.Len(), len(model))
			}
			checkHeapInvariant(t, q, step)
		}
	})
}

// insertPanics reports whether Insert(k) panicked.
func insertPanics(q *Queue, k uint64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	q.Insert(k)
	return false
}
