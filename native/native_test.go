package native_test

import (
	"sync"
	"testing"

	"hcf/native"
)

func TestMapBasics(t *testing.T) {
	m, err := native.NewMap(64)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handle()
	defer h.Release()
	if _, ok := h.Get(1); ok {
		t.Fatal("empty map reported a key")
	}
	if _, replaced := h.Put(1, 10); replaced {
		t.Fatal("first Put reported replacement")
	}
	if prev, replaced := h.Put(1, 20); !replaced || prev != 10 {
		t.Fatalf("Put replace = (%d,%v), want (10,true)", prev, replaced)
	}
	if v, ok := h.Get(1); !ok || v != 20 {
		t.Fatalf("Get = (%d,%v), want (20,true)", v, ok)
	}
	if !h.Delete(1) || h.Delete(1) {
		t.Fatal("Delete semantics wrong")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
	if m.Framework() == nil {
		t.Fatal("Framework accessor nil")
	}
}

func TestPQueueBasics(t *testing.T) {
	p, err := native.NewPQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handle()
	defer h.Release()
	for _, k := range []uint64{5, 1, 9, 3} {
		h.Insert(k)
	}
	if v, ok := h.PeekMin(); !ok || v != 1 {
		t.Fatalf("PeekMin = (%d,%v), want (1,true)", v, ok)
	}
	for _, want := range []uint64{1, 3, 5, 9} {
		if v, ok := h.ExtractMin(); !ok || v != want {
			t.Fatalf("ExtractMin = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := h.ExtractMin(); ok {
		t.Fatal("empty queue reported a key")
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d, want 0", p.Len())
	}
}

func TestMapConcurrentDisjointKeys(t *testing.T) {
	m, err := native.NewMap(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, keysPer = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.Handle()
			defer h.Release()
			base := uint64(g) * keysPer
			for k := uint64(0); k < keysPer; k++ {
				h.Put(base+k, base+k+1)
			}
			for k := uint64(0); k < keysPer; k++ {
				if v, ok := h.Get(base + k); !ok || v != base+k+1 {
					t.Errorf("g%d: Get(%d) = (%d,%v)", g, base+k, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != goroutines*keysPer {
		t.Fatalf("Len = %d, want %d", m.Len(), goroutines*keysPer)
	}
}

func TestCustomFramework(t *testing.T) {
	// The facade exposes enough to wire a custom structure: a register
	// holding one value, swap returns the old one.
	var cell struct{ v uint64 }
	fw, err := native.New(native.Config{Policies: []native.Policy{{
		Name: "Swap", TryPrivate: native.DefaultTryPrivate,
		Run: func(op native.Op) uint64 { old := cell.v; cell.v = op.A; return old },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	h := fw.MustHandle()
	defer h.Release()
	if old := h.Execute(native.Op{Class: 0, A: 7}); old != 0 {
		t.Fatalf("first swap returned %d", old)
	}
	if old := h.Execute(native.Op{Class: 0, A: 9}); old != 7 {
		t.Fatalf("second swap returned %d", old)
	}
}

// TestMapReservedKeys pins the MaxKey contract on the public map: the two
// keys above MaxKey are never found, even among tombstones, and Put
// panics on them without storing anything.
func TestMapReservedKeys(t *testing.T) {
	m, err := native.NewMap(16)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handle()
	defer h.Release()
	for k := uint64(0); k < 12; k++ {
		h.Put(k, 100+k)
	}
	for k := uint64(0); k < 12; k++ {
		h.Delete(k)
	}
	for _, k := range []uint64{native.MaxKey + 1, native.MaxKey + 2} {
		if v, ok := h.Get(k); ok {
			t.Errorf("Get(%#x) on an empty map = (%d, true)", k, v)
		}
		if h.Delete(k) {
			t.Errorf("Delete(%#x) on an empty map reported a key", k)
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("Put(%#x) did not panic", k)
				}
			}()
			h.Put(k, 8)
		}()
		if _, ok := h.Get(k); ok || h.Delete(k) || m.Len() != 0 {
			t.Errorf("refused Put(%#x) changed the map: Len %d", k, m.Len())
		}
	}
	if _, replaced := h.Put(native.MaxKey, 7); replaced {
		t.Fatal("Put(MaxKey) on an empty map reported a replacement")
	}
	if v, ok := h.Get(native.MaxKey); !ok || v != 7 {
		t.Fatalf("Get(MaxKey) = (%d, %v), want (7, true)", v, ok)
	}
}
