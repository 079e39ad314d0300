package native_test

// Race/stress coverage for the native combiner: NumCPU-scaled goroutine
// packs hammer the shipped data structures with mixed operations while a
// witness records every application. The recorded history is then
// checked for linearizability with the existing serialization-witness
// machinery (internal/witness): the native backend stamps validated
// reads with the even seqlock version they observed and critical
// sections with the odd version they held, so sorting by (stamp, intra)
// is a legal linearization, exactly as for the simulated engines.

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/native"
	"hcf/internal/native/hashtable"
	"hcf/internal/native/pqueue"
	"hcf/internal/witness"
	pubnative "hcf/native"
)

// wOp adapts a native value-struct operation to the engine.Op interface
// the witness recorder stores. Replay goes through the sequential model,
// never through Apply.
type wOp struct{ op native.Op }

func (w wOp) Apply(memsim.Ctx) uint64 { panic("wOp: replay must use the model") }
func (w wOp) Class() int              { return w.op.Class }

// bridge adapts a witness recorder to the native WitnessFunc signature.
func bridge(rec *witness.Recorder) native.WitnessFunc {
	f := rec.Func()
	return func(stamp uint64, intra int, op native.Op, result uint64) {
		f(stamp, intra, wOp{op}, result)
	}
}

// hashModel replays hashtable operations sequentially.
type hashModel struct{ m map[uint64]uint64 }

func (hm *hashModel) Apply(op engine.Op) uint64 {
	o := op.(wOp).op
	switch o.Class {
	case hashtable.ClassGet:
		v, ok := hm.m[o.A]
		return native.Pack(v, ok)
	case hashtable.ClassPut:
		prev, replaced := hm.m[o.A]
		hm.m[o.A] = o.B
		return native.Pack(prev, replaced)
	case hashtable.ClassDelete:
		_, present := hm.m[o.A]
		delete(hm.m, o.A)
		return native.PackBool(present)
	}
	panic("hashModel: unknown class")
}

// pqModel replays priority-queue operations against a multiset; results
// depend only on the multiset, so it need not mirror heap layout.
type pqModel struct{ keys []uint64 }

func (pm *pqModel) minIdx() int {
	mi := 0
	for i, k := range pm.keys {
		if k < pm.keys[mi] {
			mi = i
		}
	}
	return mi
}

func (pm *pqModel) Apply(op engine.Op) uint64 {
	o := op.(wOp).op
	switch o.Class {
	case pqueue.ClassInsert:
		pm.keys = append(pm.keys, o.A)
		return native.PackBool(true)
	case pqueue.ClassExtractMin:
		if len(pm.keys) == 0 {
			return native.Pack(0, false)
		}
		i := pm.minIdx()
		v := pm.keys[i]
		pm.keys[i] = pm.keys[len(pm.keys)-1]
		pm.keys = pm.keys[:len(pm.keys)-1]
		return native.Pack(v, true)
	case pqueue.ClassPeekMin:
		if len(pm.keys) == 0 {
			return native.Pack(0, false)
		}
		return native.Pack(pm.keys[pm.minIdx()], true)
	}
	panic("pqModel: unknown class")
}

func stressGoroutines() int {
	g := runtime.NumCPU()
	if g < 8 {
		g = 8 // oversubscribe small boxes so the combiner still sees contention
	}
	return g
}

// TestStressHashtableLinearizable hammers one table with a mixed
// get/put/delete load over a tiny keyspace (maximal conflict, frequent
// speculation aborts) and checks the full witnessed history. It runs
// twice: once with every update forced through the combiner, and once
// at the shipped speculation budget, where CAS-acquired writers help
// the operations announced while they hold the seqlock.
func TestStressHashtableLinearizable(t *testing.T) {
	t.Run("combining-only", func(t *testing.T) { stressHashtable(t, 0) })
	t.Run("default-budget", func(t *testing.T) { stressHashtable(t, pubnative.DefaultTryPrivate) })
}

// stressHashtable gives gets one speculative attempt and updates
// writeBudget. With no update budget the slot protocol is hammered even
// on boxes where speculation would otherwise always win (e.g. a single
// CPU).
func stressHashtable(t *testing.T, writeBudget int) {
	const keyspace, opsPer = 128, 3000
	goroutines := stressGoroutines()
	tb := hashtable.New(1 << 10)
	pols := tb.Policies(1, 0)
	pols[hashtable.ClassPut].TryPrivate = writeBudget
	pols[hashtable.ClassDelete].TryPrivate = writeBudget
	fw, err := native.New(native.Config{Policies: pols, MaxHandles: goroutines})
	if err != nil {
		t.Fatal(err)
	}
	rec := &witness.Recorder{}
	fw.SetWitness(bridge(rec))
	returned := make([][]outcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := fw.MustHandle()
			defer h.Release()
			rng := rand.New(rand.NewPCG(uint64(g), 0xDECAF))
			for i := 0; i < opsPer; i++ {
				k := rng.Uint64N(keyspace)
				var op native.Op
				switch rng.IntN(4) {
				case 0:
					op = hashtable.PutOp(k, rng.Uint64()>>1)
				case 1:
					op = hashtable.DeleteOp(k)
				default:
					op = hashtable.GetOp(k)
				}
				returned[g] = append(returned[g], outcome{op, h.Execute(op)})
			}
		}(g)
	}
	wg.Wait()
	model := &hashModel{m: map[uint64]uint64{}}
	if err := witness.Check(rec, model, goroutines*opsPer, nil); err != nil {
		t.Fatal(err)
	}
	checkReturned(t, rec, returned)
	m := fw.Metrics()
	if writeBudget > 0 {
		requireWriterSessions(t, m)
	} else if m.CombinerSessions == 0 {
		t.Fatalf("stress never reached the combiner: %+v", m)
	}
}

// TestStressPQueueLinearizable does the same for the priority queue,
// whose every update conflicts at the heap root. The heap array is plain
// memory guarded only by the seqlock, so the test runs twice: once with
// every update forced through the combiner, and once at the shipped
// speculation budget, where CAS-acquired writers race speculative
// PeekMin readers and each other. Random keys mostly take the heap path;
// the undercut variant draws every Insert key from a falling counter, so
// each one lands below the minimum and runs the front buffer's insert,
// its spill into the heap and the buffered ExtractMin.
func TestStressPQueueLinearizable(t *testing.T) {
	random := func(rng *rand.Rand) uint64 { return rng.Uint64N(1 << 20) }
	t.Run("combining-only", func(t *testing.T) { stressPQueue(t, 1, 0, random) })
	t.Run("default-budget", func(t *testing.T) {
		stressPQueue(t, pubnative.DefaultTryPrivate, pubnative.DefaultTryPrivate, random)
	})
	t.Run("undercut", func(t *testing.T) {
		var next atomic.Uint64
		next.Store(1 << 40)
		falling := func(*rand.Rand) uint64 { return next.Add(^uint64(0)) }
		stressPQueue(t, pubnative.DefaultTryPrivate, pubnative.DefaultTryPrivate, falling)
	})
}

// stressPQueue hammers one queue with a mixed insert/extract/peek load,
// giving PeekMin readBudget and updates writeBudget speculative attempts
// and drawing Insert keys from key, and checks the full witnessed
// history.
func stressPQueue(t *testing.T, readBudget, writeBudget int, key func(*rand.Rand) uint64) {
	const opsPer = 3000
	goroutines := stressGoroutines()
	q := pqueue.New(goroutines * opsPer)
	pols := q.Policies(readBudget, 0)
	pols[pqueue.ClassInsert].TryPrivate = writeBudget
	pols[pqueue.ClassExtractMin].TryPrivate = writeBudget
	fw, err := native.New(native.Config{Policies: pols, MaxHandles: goroutines})
	if err != nil {
		t.Fatal(err)
	}
	rec := &witness.Recorder{}
	fw.SetWitness(bridge(rec))
	returned := make([][]outcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := fw.MustHandle()
			defer h.Release()
			rng := rand.New(rand.NewPCG(uint64(g), 0xFACADE))
			for i := 0; i < opsPer; i++ {
				var op native.Op
				switch rng.IntN(4) {
				case 0, 1:
					op = pqueue.InsertOp(key(rng))
				case 2:
					op = pqueue.ExtractMinOp()
				default:
					op = pqueue.PeekMinOp()
				}
				returned[g] = append(returned[g], outcome{op, h.Execute(op)})
			}
		}(g)
	}
	wg.Wait()
	model := &pqModel{}
	if err := witness.Check(rec, model, goroutines*opsPer, nil); err != nil {
		t.Fatal(err)
	}
	checkReturned(t, rec, returned)
	m := fw.Metrics()
	if m.SpecReadHits == 0 {
		t.Fatalf("no PeekMin completed speculatively: %+v", m)
	}
	if writeBudget > 0 {
		if m.SpecWriteHits == 0 {
			t.Fatalf("no update completed as a CAS-acquired writer: %+v", m)
		}
		requireWriterSessions(t, m)
	}
}

// outcome is one operation with the result its caller got back.
type outcome struct {
	op  native.Op
	res uint64
}

// checkReturned fails unless the callers got back exactly the results
// the witness recorded, as multisets of (operation, result): the witness
// checks what the seqlock holders applied, this checks what they
// published to the owners.
func checkReturned(t *testing.T, rec *witness.Recorder, returned [][]outcome) {
	t.Helper()
	count := map[outcome]int{}
	for _, e := range rec.Entries() {
		count[outcome{e.Op.(wOp).op, e.Result}]++
	}
	for _, rs := range returned {
		for _, r := range rs {
			count[r]--
		}
	}
	for w, n := range count {
		if n != 0 {
			t.Fatalf("op %+v result %d: witnessed minus returned = %d", w.op, w.res, n)
		}
	}
}

// requireWriterSessions fails unless some CAS-won writer helped an
// announced operation. Every announced operation is applied once in some
// session, and a writer's session also counts its own operation, so
// CombinedOps - Announces is the number of writer sessions. On a single
// P nobody runs while a writer holds the seqlock, so nobody announces
// into its session and the check has nothing to see.
func requireWriterSessions(t *testing.T, m native.Metrics) {
	t.Helper()
	if runtime.GOMAXPROCS(0) > 1 && m.CombinedOps <= m.Announces {
		t.Fatalf("no CAS-won writer session claimed an announced op: %+v", m)
	}
}
