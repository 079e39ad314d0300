package route

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

func TestNewUniformValidation(t *testing.T) {
	if _, err := NewUniform(0, 0, 0); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	if _, err := NewUniform(4, 48, 4); err == nil {
		t.Fatal("expected error for non-power-of-two slots")
	}
	r, err := NewUniform(4, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slots() != DefaultSlots || r.NumShards() != 16 || r.Active() != 4 {
		t.Fatalf("got slots=%d numShards=%d active=%d", r.Slots(), r.NumShards(), r.Active())
	}
	if r.Epoch() != 0 {
		t.Fatalf("fresh ring epoch = %d, want 0", r.Epoch())
	}
}

func TestUniformBalance(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7, 8, 16} {
		r, err := NewUniform(shards, 256, shards)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for s := 0; s < shards; s++ {
			c := r.SlotCount(s)
			if c < 256/shards || c > 256/shards+1 {
				t.Fatalf("shards=%d: shard %d owns %d slots, want %d or %d",
					shards, s, c, 256/shards, 256/shards+1)
			}
			total += c
		}
		if total != 256 {
			t.Fatalf("shards=%d: slot counts sum to %d", shards, total)
		}
	}
}

func TestOwnerInRangeAndDeterministic(t *testing.T) {
	r, err := NewUniform(5, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		k := rng.Uint64()
		o := r.Owner(k)
		if o < 0 || o >= 5 {
			t.Fatalf("Owner(%d) = %d out of active range", k, o)
		}
		if o != r.Owner(k) {
			t.Fatalf("Owner(%d) not deterministic", k)
		}
		if o != r.OwnerOfSlot(int(Hash(k)>>(64-8))) {
			t.Fatalf("Owner and OwnerOfSlot disagree for key %d", k)
		}
	}
}

// Dense small keys (the common scenario keyspace) must spread evenly:
// the Fibonacci hash scrambles sequential keys across slots.
func TestSequentialKeysBalance(t *testing.T) {
	const shards, keys = 8, 1 << 16
	r, err := NewUniform(shards, 256, shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for k := uint64(0); k < keys; k++ {
		counts[r.Owner(k)]++
	}
	fair := keys / shards
	for s, c := range counts {
		if c < fair*8/10 || c > fair*12/10 {
			t.Fatalf("shard %d owns %d of %d sequential keys (fair %d)", s, c, keys, fair)
		}
	}
}

// The ISSUE's satellite property test: growing the ring from N to N+1
// shards (via Split of the largest shard into a spare) remaps at most
// ~K/N + ε of K keys, and Merge is the exact inverse.
func TestSplitMovementBound(t *testing.T) {
	const K = 1 << 16
	const maxShards = 16
	keys := make([]uint64, K)
	rng := rand.New(rand.NewPCG(7, 11))
	for i := range keys {
		keys[i] = rng.Uint64()
	}

	r, err := NewUniform(1, 256, maxShards)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < maxShards; n++ {
		// Split the largest shard into the first spare.
		from, best := 0, -1
		for s := 0; s < r.NumShards(); s++ {
			if c := r.SlotCount(s); c > best {
				from, best = s, c
			}
		}
		next, err := r.Split(from, n)
		if err != nil {
			t.Fatalf("split at n=%d: %v", n, err)
		}
		if next.Epoch() != r.Epoch()+1 {
			t.Fatalf("split epoch %d, want %d", next.Epoch(), r.Epoch()+1)
		}

		// Slot-level movement is exactly ⌊count(from)/2⌋.
		moved := movedSlots(t, r, next)
		if moved != best/2 {
			t.Fatalf("n=%d: %d slots moved, want %d", n, moved, best/2)
		}

		// Key-level movement ≤ K/n + ε (ε covers slot granularity:
		// the largest shard can own slightly more than 1/n of slots,
		// and keys are not perfectly uniform per slot).
		remapped := 0
		for _, k := range keys {
			if r.Owner(k) != next.Owner(k) {
				remapped++
			}
			// Keys that moved must have moved from→to only.
			if r.Owner(k) != next.Owner(k) && (r.Owner(k) != from || next.Owner(k) != n) {
				t.Fatalf("n=%d: key %d moved %d→%d, expected %d→%d",
					n, k, r.Owner(k), next.Owner(k), from, n)
			}
		}
		bound := K/n + K/10 // K/N + ε with ε = 10% of K
		if remapped > bound {
			t.Fatalf("n=%d: %d of %d keys remapped, bound %d", n, remapped, K, bound)
		}

		// Merge is the inverse: merging the new shard back restores
		// the previous slot table exactly.
		back, err := next.Merge(n, from)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.slots, r.slots) {
			t.Fatalf("n=%d: merge did not invert split", n)
		}
		if !reflect.DeepEqual(back.counts, r.counts) {
			t.Fatalf("n=%d: merge counts diverge from pre-split", n)
		}
		for _, k := range keys {
			if back.Owner(k) != r.Owner(k) {
				t.Fatalf("n=%d: key %d owner changed after split+merge", n, k)
			}
		}

		r = next
	}
	if r.Active() != maxShards {
		t.Fatalf("after %d splits active = %d", maxShards-1, r.Active())
	}
}

func TestSplitMergeValidation(t *testing.T) {
	r, err := NewUniform(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Split(0, 0); err == nil {
		t.Fatal("split onto self must fail")
	}
	if _, err := r.Split(0, 1); err == nil {
		t.Fatal("split onto an occupied shard must fail")
	}
	if _, err := r.Split(0, 9); err == nil {
		t.Fatal("split out of range must fail")
	}
	if _, err := r.Merge(3, 0); err == nil {
		t.Fatal("merge of an empty shard must fail")
	}
	if _, err := r.Merge(0, 3); err == nil {
		t.Fatal("merge into an empty shard must fail")
	}
	one, err := NewUniform(1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Merge(0, 0); err == nil {
		t.Fatal("merge onto self must fail")
	}

	// Splitting a 1-slot shard is impossible: free up a spare shard
	// first so the only objection left is the slot count.
	tiny, err := NewUniform(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err = tiny.Merge(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Split(0, 7); err == nil {
		t.Fatal("splitting a single-slot shard must fail")
	}
}

func TestImmutability(t *testing.T) {
	r, _ := NewUniform(2, 16, 4)
	before := append([]int32(nil), r.slots...)
	if _, err := r.Split(0, 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, r.slots) {
		t.Fatal("Split mutated the source ring")
	}
	if _, err := r.Merge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, r.slots) {
		t.Fatal("Merge mutated the source ring")
	}
}

func TestSnapshot(t *testing.T) {
	r, _ := NewUniform(3, 16, 8)
	s := r.Snapshot()
	if s.Epoch != 0 || s.Slots != 16 || s.Active != 3 {
		t.Fatalf("snapshot header %+v", s)
	}
	if len(s.Owners) != 16 || len(s.Counts) != 8 || len(s.Shares) != 8 {
		t.Fatalf("snapshot lengths %d/%d/%d", len(s.Owners), len(s.Counts), len(s.Shares))
	}
	sum := 0.0
	for _, f := range s.Shares {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %f", sum)
	}
	// Snapshot is a copy, not a view.
	s.Owners[0] = 99
	if r.OwnerOfSlot(0) == 99 {
		t.Fatal("snapshot aliases ring storage")
	}
}

func TestTablePublishLoad(t *testing.T) {
	r0, _ := NewUniform(2, 16, 4)
	tab := NewTable(r0)
	if tab.Load() != r0 {
		t.Fatal("Load returned a different ring")
	}
	r1, err := r0.Split(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab.Publish(r1)
	if tab.Load() != r1 {
		t.Fatal("Publish did not install the new ring")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-publishing an older epoch must panic")
		}
	}()
	tab.Publish(r1)
}

// Readers must stay safe while a writer republishes: exercised under
// -race in CI.
func TestTableConcurrentReaders(t *testing.T) {
	r, _ := NewUniform(1, 64, 8)
	tab := NewTable(r)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 3))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ring := tab.Load()
				k := rng.Uint64()
				if o := ring.Owner(k); o < 0 || o >= ring.NumShards() {
					panic("owner out of range")
				}
			}
		}(uint64(g))
	}
	cur := r
	for n := 1; n < 8; n++ {
		from, best := 0, -1
		for s := 0; s < cur.NumShards(); s++ {
			if c := cur.SlotCount(s); c > best {
				from, best = s, c
			}
		}
		next, err := cur.Split(from, n)
		if err != nil {
			t.Fatal(err)
		}
		tab.Publish(next)
		cur = next
	}
	close(stop)
	wg.Wait()
	if tab.Load().Active() != 8 {
		t.Fatalf("final active = %d", tab.Load().Active())
	}
}

// movedSlots counts the slots whose owner differs between two rings of
// the same size — the exact movement cost of a topology change.
func movedSlots(t testing.TB, a, b *Ring) int {
	t.Helper()
	if len(a.slots) != len(b.slots) {
		t.Fatalf("slot counts differ (%d vs %d)", len(a.slots), len(b.slots))
	}
	n := 0
	for i := range a.slots {
		if a.slots[i] != b.slots[i] {
			n++
		}
	}
	return n
}
