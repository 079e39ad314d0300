package witness

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/avl"
	"hcf/internal/seq/hashtable"
	"hcf/internal/seq/setops"
)

// TestScheduleFuzzHashTable explores many distinct interleavings by
// perturbing the cost model with seeded jitter, and requires a valid
// linearization witness from every engine under every schedule. Each
// failing seed is exactly reproducible.
func TestScheduleFuzzHashTable(t *testing.T) {
	const threads, perThread = 6, 40
	for seed := uint64(0); seed < 6; seed++ {
		for _, name := range []string{"TLE", "FC", "TLE+FC", "HCF"} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				cost := memsim.DefaultCostParams()
				cost.JitterPct = 40
				env := memsim.NewDet(memsim.DetConfig{Threads: threads, Cost: cost, Seed: seed})
				tbl := hashtable.New(env.Boot(), 32)
				rec := &Recorder{}
				eng := witnessedEngines(t, env, hashtable.Policies(), hashtable.CombineMixed, rec)[name]
				env.Run(func(th *memsim.Thread) {
					rng := rand.New(rand.NewPCG(uint64(th.ID()), seed))
					for i := 0; i < perThread; i++ {
						key := rng.Uint64N(48)
						switch rng.IntN(3) {
						case 0:
							eng.Execute(th, hashtable.InsertOp{T: tbl, Key: key, Val: key + seed})
						case 1:
							eng.Execute(th, hashtable.FindOp{T: tbl, Key: key})
						default:
							eng.Execute(th, hashtable.RemoveOp{T: tbl, Key: key})
						}
					}
				})
				if err := Check(rec, hashtable.Model{}, threads*perThread, hashtable.Rank); err != nil {
					t.Fatal(err)
				}
				if msg := tbl.CheckInvariants(env.Boot()); msg != "" {
					t.Fatal(msg)
				}
			})
		}
	}
}

// TestScheduleFuzzCounter does the same with the counter workload across
// all six engines (cheaper, so more seeds).
func TestScheduleFuzzCounter(t *testing.T) {
	const threads, perThread = 5, 30
	pols := counterPolicies()
	for seed := uint64(0); seed < 10; seed++ {
		for _, name := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				cost := memsim.DefaultCostParams()
				cost.JitterPct = 50
				env := memsim.NewDet(memsim.DetConfig{Threads: threads, Cost: cost, Seed: seed})
				rec := &Recorder{}
				eng := witnessedEngines(t, env, pols, combineIncs, rec)[name]
				counter := env.Alloc(1)
				env.Run(func(th *memsim.Thread) {
					for i := 0; i < perThread; i++ {
						eng.Execute(th, incOp{addr: counter})
					}
				})
				if err := Check(rec, &counterModel{}, threads*perThread, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// fuzzHistory decodes bytes into a witnessed history of set operations.
// Each byte b is one operation of kind b&3 on key (b>>2)&15; kind 3 ends
// the current batch instead. Each batch's results come from applying it to
// a setops.Model in setops.Rank order, as a combiner would; its entries
// share one stamp and carry their batch index as intra. The entries are
// returned in an arrival order that the bytes also choose.
func fuzzHistory(data []byte) []Entry {
	if len(data) > 512 {
		data = data[:512]
	}
	model := setops.Model{}
	var out []Entry
	var batch []engine.Op
	flush := func() {
		order := make([]int, len(batch))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return setops.Rank(batch[order[a]]) < setops.Rank(batch[order[b]])
		})
		stamp := uint64(len(out) + 1)
		res := make([]uint64, len(batch))
		for _, i := range order {
			res[i] = model.Apply(batch[i])
		}
		for i, op := range batch {
			out = append(out, Entry{Stamp: stamp, Intra: i, Op: op, Result: res[i]})
		}
		batch = batch[:0]
	}
	for _, b := range data {
		k := uint64(b>>2) & 15
		switch b & 3 {
		case 0:
			batch = append(batch, avl.FindOp{K: k})
		case 1:
			batch = append(batch, avl.InsertOp{K: k})
		case 2:
			batch = append(batch, avl.RemoveOp{K: k})
		default:
			flush()
		}
	}
	flush()
	for i := len(out) - 1; i > 0; i-- {
		j := int(data[i%len(data)]) % (i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// record feeds entries to a fresh Recorder in order.
func record(entries []Entry) *Recorder {
	rec := &Recorder{}
	fn := rec.Func()
	for _, e := range entries {
		fn(e.Stamp, e.Intra, e.Op, e.Result)
	}
	return rec
}

// FuzzWitnessCheck requires Check to accept every history a key-sorting
// set combiner could produce, arrival order notwithstanding, and to reject
// it once one result is flipped or one entry is dropped.
func FuzzWitnessCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1 | 5<<2})
	f.Add([]byte{1 | 3<<2, 0 | 3<<2, 1 | 3<<2, 2 | 3<<2, 2 | 3<<2, 0 | 3<<2})
	f.Add([]byte{1 | 1<<2, 1 | 2<<2, 3, 0 | 1<<2, 2 | 2<<2, 1 | 2<<2, 3, 2 | 1<<2, 0 | 2<<2, 3, 0 | 1<<2})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := fuzzHistory(data)
		n := len(entries)
		if err := Check(record(entries), setops.Model{}, n, setops.Rank); err != nil {
			t.Fatalf("valid history rejected: %v", err)
		}
		if n == 0 {
			return
		}
		flipped := append([]Entry(nil), entries...)
		fl := int(data[0]) % n
		flipped[fl].Result = engine.PackBool(!engine.UnpackBool(flipped[fl].Result))
		if Check(record(flipped), setops.Model{}, n, setops.Rank) == nil {
			t.Fatalf("history with entry %d's result flipped accepted", fl)
		}
		d := int(data[len(data)-1]) % n
		dropped := append(append([]Entry(nil), entries[:d]...), entries[d+1:]...)
		if Check(record(dropped), setops.Model{}, n, setops.Rank) == nil {
			t.Fatalf("history with entry %d dropped accepted", d)
		}
	})
}
