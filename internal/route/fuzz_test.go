package route

import (
	"slices"
	"testing"
)

// fuzzMaxSteps caps the decoded topology-change sequence; longer inputs
// reach no new state on a ring of at most 15 shards.
const fuzzMaxSteps = 64

// FuzzRing decodes its input into a ring and a Split/Merge sequence and
// checks the ring's invariants after every step. The first three bytes
// pick NewUniform's parameters: shards = 1 + b0%8, maxShards = shards +
// b1%8, slots = 1 << (b2%9) (raised by NewUniform to cover maxShards).
// Each following 3-byte group is one change: the low bit of the first
// byte picks Split (0) or Merge (1), and the next two bytes, reduced
// modulo NumShards, are its source and target shards. Invalid changes
// must fail and leave the ring usable; valid ones must bump the epoch,
// move at most the slots they transfer (a split exactly half of the
// source's, rounded down), and a split must be undone exactly by the
// inverse merge. The seed corpus is testdata/fuzz/FuzzRing.
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shards := 1 + int(data[0]%8)
		r, err := NewUniform(shards, 1<<(data[2]%9), shards+int(data[1]%8))
		if err != nil {
			t.Fatalf("NewUniform(%d, %d, %d): %v", shards, 1<<(data[2]%9), shards+int(data[1]%8), err)
		}
		checkRing(t, -1, r)
		ops := data[3:]
		for step := 0; step+3 <= len(ops) && step < 3*fuzzMaxSteps; step += 3 {
			n := r.NumShards()
			a, b := int(ops[step+1])%n, int(ops[step+2])%n
			var next *Ring
			var transferred int
			if ops[step]&1 == 0 {
				if next, err = r.Split(a, b); err != nil {
					continue
				}
				transferred = r.SlotCount(a) - next.SlotCount(a)
				if want := r.SlotCount(a) / 2; transferred != want || next.SlotCount(b) != want {
					t.Fatalf("step %d: Split(%d,%d) of %d slots transferred %d (target now owns %d), want %d",
						step/3, a, b, r.SlotCount(a), transferred, next.SlotCount(b), want)
				}
				back, err := next.Merge(b, a)
				if err != nil {
					t.Fatalf("step %d: Merge(%d,%d) undoing a split: %v", step/3, b, a, err)
				}
				if !slices.Equal(back.slots, r.slots) || !slices.Equal(back.counts, r.counts) || back.Active() != r.Active() {
					t.Fatalf("step %d: Split(%d,%d)+Merge(%d,%d) did not restore the slot map:\n%v\nvs\n%v",
						step/3, a, b, b, a, back.Snapshot(), r.Snapshot())
				}
			} else {
				if next, err = r.Merge(a, b); err != nil {
					continue
				}
				transferred = r.SlotCount(a)
				if next.SlotCount(a) != 0 || next.SlotCount(b) != r.SlotCount(a)+r.SlotCount(b) {
					t.Fatalf("step %d: Merge(%d,%d) left counts %d/%d", step/3, a, b, next.SlotCount(a), next.SlotCount(b))
				}
			}
			if next.Epoch() <= r.Epoch() {
				t.Fatalf("step %d: epoch %d -> %d did not increase", step/3, r.Epoch(), next.Epoch())
			}
			moved := movedSlots(t, r, next)
			if moved > transferred {
				t.Fatalf("step %d: %d slots moved, only %d transferred", step/3, moved, transferred)
			}
			checkRing(t, step/3, next)
			r = next
		}
	})
}

// checkRing verifies one ring's bookkeeping: every slot's owner is in
// range, per-shard counts match the slot table and sum to Slots(), Active
// counts the shards owning slots, and Owner lands on an active shard.
func checkRing(t *testing.T, step int, r *Ring) {
	t.Helper()
	counts := make([]int, r.NumShards())
	for i := 0; i < r.Slots(); i++ {
		o := r.OwnerOfSlot(i)
		if o < 0 || o >= r.NumShards() {
			t.Fatalf("step %d: slot %d owned by %d, outside [0,%d)", step, i, o, r.NumShards())
		}
		counts[o]++
	}
	sum, active := 0, 0
	for s, c := range counts {
		if c != r.SlotCount(s) {
			t.Fatalf("step %d: shard %d owns %d slots, SlotCount says %d", step, s, c, r.SlotCount(s))
		}
		sum += r.SlotCount(s)
		if c > 0 {
			active++
		}
	}
	if sum != r.Slots() {
		t.Fatalf("step %d: slot counts sum to %d, ring has %d slots", step, sum, r.Slots())
	}
	if active != r.Active() {
		t.Fatalf("step %d: %d shards own slots, Active() = %d", step, active, r.Active())
	}
	for k := uint64(0); k < 64; k++ {
		key := k * 0x9E3779B97F4A7C15
		if o := r.Owner(key); o < 0 || o >= r.NumShards() || r.SlotCount(o) == 0 {
			t.Fatalf("step %d: Owner(%#x) = %d is not an active shard", step, key, o)
		}
	}
}
