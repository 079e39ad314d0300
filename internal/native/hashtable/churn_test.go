package hashtable

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hcf/internal/native"
)

// absentProbeLen walks the probe sequence for an absent key exactly the
// way Get does, counting cells until a never-used (0) cell terminates
// the scan. On a healthy table this is short; on a table whose free
// cells have all decayed into tombstones it is the full capacity.
func absentProbeLen(t *Table, k uint64) int {
	i := t.hash(k)
	probes := 0
	for uint64(probes) <= t.mask {
		if t.keys[i].Load() == 0 {
			return probes
		}
		probes++
		i = (i + 1) & t.mask
	}
	return probes
}

// TestChurnRegression pins the tombstone-reclamation fix: 10x-capacity
// insert/delete cycles of distinct keys must neither panic nor degrade
// absent-key probes toward O(capacity). On the pre-fix table every 0
// cell eventually becomes a tombstone, the absent-key probe walks all
// slots, and this test fails at the probe-length assertion.
func TestChurnRegression(t *testing.T) {
	const capacity = 256
	tb := New(capacity)
	const live = 8 // small steady-state population, far below capacity/2
	for i := uint64(0); i < live; i++ {
		tb.Put(1_000_000+i, i)
	}
	cycles := 10 * capacity
	for c := 0; c < cycles; c++ {
		k := uint64(c) // distinct key every cycle: tombstones spread table-wide
		tb.Put(k, k)
		if !native.UnpackBool(tb.Delete(k)) {
			t.Fatalf("cycle %d: freshly inserted key %d missing", c, k)
		}
	}
	if got := tb.Len(); got != live {
		t.Fatalf("Len = %d after churn, want %d", got, live)
	}
	// An absent key's probe must terminate on a 0 cell quickly. Allow a
	// generous capacity/4 (the compaction threshold); the pre-fix table
	// reports the full capacity here.
	const bound = capacity / 4
	for k := uint64(2_000_000); k < 2_000_016; k++ {
		if p := absentProbeLen(tb, k); p > bound {
			t.Fatalf("absent-key probe length %d exceeds %d after churn (tombstones=%d)",
				p, bound, tb.Tombstones())
		}
		if _, ok := native.Unpack(tb.Get(k)); ok {
			t.Fatalf("absent key %d reported present", k)
		}
	}
	// The long-lived population must have survived every compaction.
	for i := uint64(0); i < live; i++ {
		v, ok := native.Unpack(tb.Get(1_000_000 + i))
		if !ok || v != i {
			t.Fatalf("survivor key %d = (%d,%v), want (%d,true)", 1_000_000+i, v, ok, i)
		}
	}
}

// TestChurnThroughFramework runs the same churn shape through a native
// framework under concurrency, with a spectator goroutine polling Len
// and Tombstones the whole time — the gauge path the KV engine's serve
// endpoint uses. Run under -race this also proves the atomic counters
// and in-place compaction are race-clean against optimistic readers.
func TestChurnThroughFramework(t *testing.T) {
	const capacity = 1 << 9
	tb := New(capacity)
	fw, err := native.New(native.Config{Policies: tb.Policies(4, 0), MaxHandles: 8})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var spectator sync.WaitGroup
	spectator.Add(1)
	go func() {
		defer spectator.Done()
		for !stop.Load() {
			if n := tb.Len(); n < 0 || n > capacity {
				t.Errorf("Len gauge out of range: %d", n)
				return
			}
			_ = tb.Tombstones()
		}
	}()
	const goroutines, cycles = 4, 4 * capacity
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := fw.MustHandle()
			defer h.Release()
			for c := 0; c < cycles; c++ {
				k := uint64(g*cycles + c)
				h.Execute(PutOp(k, k))
				h.Execute(GetOp(k))
				h.Execute(DeleteOp(k))
				h.Execute(GetOp(k + 1<<40)) // absent-key probe under churn
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	spectator.Wait()
	if got := tb.Len(); got != 0 {
		t.Fatalf("Len = %d after deleting every inserted key", got)
	}
}

// TestExactCapacityFill fills every slot with live keys: all must be
// retrievable, and Len must equal the capacity.
func TestExactCapacityFill(t *testing.T) {
	const capacity = 64
	tb := New(capacity)
	for k := uint64(0); k < capacity; k++ {
		if _, replaced := native.Unpack(tb.Put(k, k*3)); replaced {
			t.Fatalf("Put(%d) reported replacement on fresh key", k)
		}
	}
	if tb.Len() != capacity {
		t.Fatalf("Len = %d, want %d", tb.Len(), capacity)
	}
	for k := uint64(0); k < capacity; k++ {
		v, ok := native.Unpack(tb.Get(k))
		if !ok || v != k*3 {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, k*3)
		}
	}
	// Updates in a full table must still work (no free cell needed).
	tb.Put(0, 999)
	if v, _ := native.Unpack(tb.Get(0)); v != 999 {
		t.Fatalf("update in full table lost: got %d", v)
	}
}

// TestFullTablePanic pins the full-table paths: inserting one key past a
// table full of live keys fails TryPut, leaving the table as it was, and
// panics Put with the documented message.
func TestFullTablePanic(t *testing.T) {
	const capacity = 32
	tb := New(capacity)
	for k := uint64(0); k < capacity; k++ {
		tb.Put(k, k)
	}
	if _, ok := tb.TryPut(capacity, 0); ok {
		t.Fatal("TryPut of a new key into a full table succeeded")
	}
	if _, found := native.Unpack(tb.Get(capacity)); found || tb.Len() != capacity {
		t.Fatalf("failed TryPut changed the table: found=%v Len=%d", found, tb.Len())
	}
	if r, ok := tb.TryPut(1, 7); !ok || r != native.Pack(1, true) {
		t.Fatalf("TryPut update in a full table = (%#x, %v), want (%#x, true)", r, ok, native.Pack(1, true))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Put into a full table did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "table full") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	tb.Put(capacity, 0)
}

// TestTombstoneReuseBranch pins the haveFree insert branch: after a
// delete in an otherwise-full table, the next insert must land in the
// reclaimed cell rather than panicking, and the dead counter must drop.
func TestTombstoneReuseBranch(t *testing.T) {
	const capacity = 32
	tb := New(capacity)
	for k := uint64(0); k < capacity; k++ {
		tb.Put(k, k)
	}
	if !native.UnpackBool(tb.Delete(5)) {
		t.Fatal("Delete(5) missed")
	}
	if tb.Tombstones() != 1 {
		t.Fatalf("Tombstones = %d after one delete, want 1", tb.Tombstones())
	}
	// capacity is 32, threshold is >8 dead cells, so no compaction has
	// run: this insert must take the haveFree tombstone-reuse branch.
	if _, replaced := native.Unpack(tb.Put(100, 42)); replaced {
		t.Fatal("Put(100) reported replacement on fresh key")
	}
	if tb.Tombstones() != 0 {
		t.Fatalf("Tombstones = %d after reuse, want 0", tb.Tombstones())
	}
	if tb.Len() != capacity {
		t.Fatalf("Len = %d, want %d", tb.Len(), capacity)
	}
	if v, ok := native.Unpack(tb.Get(100)); !ok || v != 42 {
		t.Fatalf("Get(100) = (%d,%v), want (42,true)", v, ok)
	}
	if _, ok := native.Unpack(tb.Get(5)); ok {
		t.Fatal("deleted key 5 still present")
	}
}

// TestRangeVisitsLiveKeys checks Range sees exactly the live population,
// including after compactions have shuffled cells.
func TestRangeVisitsLiveKeys(t *testing.T) {
	tb := New(128)
	want := map[uint64]uint64{}
	for k := uint64(0); k < 200; k++ {
		tb.Put(k, k*7)
		if k%2 == 0 {
			tb.Delete(k)
		} else {
			want[k] = k * 7
		}
		if k >= 100 {
			tb.Delete(k)
			delete(want, k)
		}
	}
	got := map[uint64]uint64{}
	tb.Range(func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
}
