package hashtable

import (
	"math/rand/v2"
	"sync"
	"testing"

	"hcf/internal/native"
)

func TestSequentialAgainstMap(t *testing.T) {
	tb := New(256)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		k := rng.Uint64N(100)
		switch rng.IntN(3) {
		case 0:
			v := rng.Uint64() >> 1 // results are Pack'd: 63-bit values
			gotPrev, gotRepl := native.Unpack(tb.Put(k, v))
			wantPrev, wantRepl := model[k], false
			if _, ok := model[k]; ok {
				wantRepl = true
			}
			model[k] = v
			if gotRepl != wantRepl || (wantRepl && gotPrev != wantPrev) {
				t.Fatalf("Put(%d): got (%d,%v), want (%d,%v)", k, gotPrev, gotRepl, wantPrev, wantRepl)
			}
		case 1:
			got := native.UnpackBool(tb.Delete(k))
			_, want := model[k]
			delete(model, k)
			if got != want {
				t.Fatalf("Delete(%d): got %v, want %v", k, got, want)
			}
		default:
			gotV, gotOK := native.Unpack(tb.Get(k))
			wantV, wantOK := model[k]
			if gotOK != wantOK || (wantOK && gotV != wantV) {
				t.Fatalf("Get(%d): got (%d,%v), want (%d,%v)", k, gotV, gotOK, wantV, wantOK)
			}
		}
		if tb.Len() != len(model) {
			t.Fatalf("Len = %d, model has %d", tb.Len(), len(model))
		}
	}
}

// TestTombstoneReuse fills a small table, deletes everything, and
// refills with different keys: insertion must reuse tombstoned cells
// instead of exhausting the fixed capacity.
func TestTombstoneReuse(t *testing.T) {
	tb := New(16)
	for round := uint64(0); round < 100; round++ {
		for i := uint64(0); i < 10; i++ {
			tb.Put(round*1000+i, i)
		}
		for i := uint64(0); i < 10; i++ {
			if !native.UnpackBool(tb.Delete(round*1000 + i)) {
				t.Fatalf("round %d: key %d missing", round, i)
			}
		}
		if tb.Len() != 0 {
			t.Fatalf("round %d: Len = %d after deleting all", round, tb.Len())
		}
	}
}

// TestFrameworkWiring drives the table through a native framework from
// several goroutines: per-key counters survive exactly-once application.
func TestFrameworkWiring(t *testing.T) {
	tb := New(1 << 10)
	fw, err := native.New(native.Config{Policies: tb.Policies(4, 0), MaxHandles: 8})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, opsPer = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := fw.MustHandle()
			defer h.Release()
			k := uint64(g) // one key per goroutine: increments must all land
			for i := 0; i < opsPer; i++ {
				v, _ := native.Unpack(h.Execute(GetOp(k)))
				h.Execute(PutOp(k, v+1))
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		v, ok := native.Unpack(tb.Get(uint64(g)))
		if !ok || v != opsPer {
			t.Fatalf("key %d = (%d,%v), want (%d,true)", g, v, ok, opsPer)
		}
	}
}

// TestReservedKeysAbsent pins that the two keys above MaxKey, whose
// key+1 encodings are the tombstone and empty markers, never match a
// cell: on a table holding tombstones, Get reports them absent instead of
// a deleted key's value, and Delete finds nothing and changes nothing.
// MaxKey itself stores normally.
func TestReservedKeysAbsent(t *testing.T) {
	tb := New(16)
	for k := uint64(0); k < 12; k++ {
		tb.Put(k, 100+k)
	}
	for k := uint64(0); k < 12; k++ {
		tb.Delete(k)
	}
	if tb.Tombstones() == 0 {
		t.Fatal("setup left no tombstones to collide with")
	}
	for _, k := range []uint64{MaxKey + 1, MaxKey + 2} {
		if v, ok := native.Unpack(tb.Get(k)); ok {
			t.Errorf("Get(%#x) on an empty table = (%d, true)", k, v)
		}
		dead := tb.Tombstones()
		if native.UnpackBool(tb.Delete(k)) || tb.Tombstones() != dead {
			t.Errorf("Delete(%#x) on an empty table found a key", k)
		}
	}
	tb.Put(MaxKey, 5)
	if v, ok := native.Unpack(tb.Get(MaxKey)); !ok || v != 5 {
		t.Fatalf("Get(MaxKey) = (%d, %v), want (5, true)", v, ok)
	}
	if !native.UnpackBool(tb.Delete(MaxKey)) || tb.Len() != 0 {
		t.Fatalf("Delete(MaxKey) failed: Len %d", tb.Len())
	}
}
