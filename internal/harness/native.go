package harness

// Native wall-clock sweep: drives the native (direct-atomics) HCF
// backend and the stdlib baselines everyone benchmarks against —
// sync.Mutex, sync.RWMutex, sync.Map — across goroutine counts and
// read/write mixes, measuring real operations per second over fixed
// timed windows. This is the wall-clock counterpart of the simulated
// figure sweeps: no cycle model, just the host clock, which also makes
// the numbers hardware-dependent. The baseline gate therefore
// normalizes by the median point ratio before judging regressions, so a
// checked-in baseline from one box remains usable as a CI gate on
// another.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hcf/native"
)

// Native engine and structure names used in reports.
const (
	NativeEngineHCF     = "HCF-N"
	NativeEngineMutex   = "Mutex"
	NativeEngineRWMutex = "RWMutex"
	NativeEngineSyncMap = "sync.Map"

	NativeStructHash = "hashtable"
	NativeStructPQ   = "pqueue"
)

// NativeOptions configures a native sweep.
type NativeOptions struct {
	// Goroutines is the concurrency ladder. Default {1,2,4,8}, plus
	// NumCPU when larger than 8.
	Goroutines []int
	// ReadPcts are the hashtable read percentages to measure (writes
	// split evenly between put and delete). Default {90, 50}.
	ReadPcts []int
	// Duration is the measured window per point (default 150ms); each
	// point also gets a Duration/3 warmup.
	Duration time.Duration
	// Keyspace is the hashtable key range (default 1<<14), prefilled to
	// half occupancy.
	Keyspace int
}

func (o *NativeOptions) normalize() {
	if len(o.Goroutines) == 0 {
		o.Goroutines = []int{1, 2, 4, 8}
		if n := runtime.NumCPU(); n > 8 {
			o.Goroutines = append(o.Goroutines, n)
		}
	}
	if len(o.ReadPcts) == 0 {
		o.ReadPcts = []int{90, 50}
	}
	if o.Duration <= 0 {
		o.Duration = 150 * time.Millisecond
	}
	if o.Keyspace <= 0 {
		o.Keyspace = 1 << 14
	}
}

// NativePoint is one measured (structure, engine, goroutines, mix) cell.
type NativePoint struct {
	Structure  string  `json:"structure"`
	Engine     string  `json:"engine"`
	Goroutines int     `json:"goroutines"`
	ReadPct    int     `json:"read_pct"`
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
}

// NativeReport is the machine-readable record of one sweep
// (bench/BENCH_native.json).
type NativeReport struct {
	Kind       string        `json:"kind"` // "hcf-native-bench"
	Note       string        `json:"note,omitempty"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	DurationMS int64         `json:"point_duration_ms"`
	Keyspace   int           `json:"keyspace"`
	WallSec    float64       `json:"wall_seconds"`
	Points     []NativePoint `json:"points"`
}

// NativeReportKind is the Kind value RunNativeSweep stamps.
const NativeReportKind = "hcf-native-bench"

// nativeWorker is one goroutine's operation loop state.
type nativeWorker struct {
	op    func(rng *rand.Rand)
	close func()
}

// nativeEngine builds per-goroutine workers over one shared structure.
type nativeEngine struct {
	name   string
	worker func() nativeWorker
}

// hashWorkerLoop returns the shared mixed-op body over an abstract map.
func hashMix(get func(uint64), put func(uint64, uint64), del func(uint64), keyspace uint64, readPct int) func(rng *rand.Rand) {
	return func(rng *rand.Rand) {
		k := rng.Uint64N(keyspace)
		r := rng.IntN(100)
		switch {
		case r < readPct:
			get(k)
		case r&1 == 0:
			put(k, k+1)
		default:
			del(k)
		}
	}
}

// hashEngines builds the four hashtable contenders, each prefilled to
// half the keyspace.
func hashEngines(keyspace, readPct int) ([]nativeEngine, error) {
	ks := uint64(keyspace)
	prefill := ks / 2

	nm, err := native.NewMap(2 * keyspace)
	if err != nil {
		return nil, err
	}
	h := nm.Handle()
	for k := uint64(0); k < prefill; k++ {
		h.Put(k*2, k)
	}
	h.Release()

	mm := struct {
		sync.Mutex
		m map[uint64]uint64
	}{m: make(map[uint64]uint64, keyspace)}
	rm := struct {
		sync.RWMutex
		m map[uint64]uint64
	}{m: make(map[uint64]uint64, keyspace)}
	var sm sync.Map
	for k := uint64(0); k < prefill; k++ {
		mm.m[k*2] = k
		rm.m[k*2] = k
		sm.Store(k*2, k)
	}

	return []nativeEngine{
		{name: NativeEngineHCF, worker: func() nativeWorker {
			mh := nm.Handle()
			return nativeWorker{
				op: hashMix(
					func(k uint64) { mh.Get(k) },
					func(k, v uint64) { mh.Put(k, v) },
					func(k uint64) { mh.Delete(k) },
					ks, readPct),
				close: mh.Release,
			}
		}},
		{name: NativeEngineMutex, worker: func() nativeWorker {
			return nativeWorker{
				op: hashMix(
					func(k uint64) { mm.Lock(); _ = mm.m[k]; mm.Unlock() },
					func(k, v uint64) { mm.Lock(); mm.m[k] = v; mm.Unlock() },
					func(k uint64) { mm.Lock(); delete(mm.m, k); mm.Unlock() },
					ks, readPct),
				close: func() {},
			}
		}},
		{name: NativeEngineRWMutex, worker: func() nativeWorker {
			return nativeWorker{
				op: hashMix(
					func(k uint64) { rm.RLock(); _ = rm.m[k]; rm.RUnlock() },
					func(k, v uint64) { rm.Lock(); rm.m[k] = v; rm.Unlock() },
					func(k uint64) { rm.Lock(); delete(rm.m, k); rm.Unlock() },
					ks, readPct),
				close: func() {},
			}
		}},
		{name: NativeEngineSyncMap, worker: func() nativeWorker {
			return nativeWorker{
				op: hashMix(
					func(k uint64) { sm.Load(k) },
					func(k, v uint64) { sm.Store(k, v) },
					func(k uint64) { sm.Delete(k) },
					ks, readPct),
				close: func() {},
			}
		}},
	}, nil
}

// mutexHeap is the baseline priority queue: a plain binary min-heap
// under a sync.Mutex.
type mutexHeap struct {
	mu sync.Mutex
	h  []uint64
}

func (p *mutexHeap) insert(k uint64) {
	p.mu.Lock()
	p.h = append(p.h, k)
	i := len(p.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.h[parent] <= p.h[i] {
			break
		}
		p.h[parent], p.h[i] = p.h[i], p.h[parent]
		i = parent
	}
	p.mu.Unlock()
}

func (p *mutexHeap) extractMin() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.h) == 0 {
		return
	}
	last := len(p.h) - 1
	p.h[0] = p.h[last]
	p.h = p.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(p.h) {
			break
		}
		c := l
		if r < len(p.h) && p.h[r] < p.h[l] {
			c = r
		}
		if p.h[i] <= p.h[c] {
			break
		}
		p.h[i], p.h[c] = p.h[c], p.h[i]
		i = c
	}
}

func (p *mutexHeap) peekMin() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.h) == 0 {
		return 0, false
	}
	return p.h[0], true
}

const pqPrefill = 4096

// pqEngines builds the two priority-queue contenders. readPct of the
// mix peeks; the rest splits evenly between insert and extract-min.
func pqEngines(readPct int) ([]nativeEngine, error) {
	np, err := native.NewPQueue(1 << 20)
	if err != nil {
		return nil, err
	}
	h := np.Handle()
	for k := uint64(0); k < pqPrefill; k++ {
		h.Insert(k)
	}
	h.Release()

	mh := &mutexHeap{}
	for k := uint64(0); k < pqPrefill; k++ {
		mh.insert(k)
	}

	pqMix := func(peek func(), insert func(uint64), extract func()) func(rng *rand.Rand) {
		return func(rng *rand.Rand) {
			r := rng.IntN(100)
			switch {
			case r < readPct:
				peek()
			case r&1 == 0:
				insert(rng.Uint64N(1 << 20))
			default:
				extract()
			}
		}
	}
	return []nativeEngine{
		{name: NativeEngineHCF, worker: func() nativeWorker {
			ph := np.Handle()
			return nativeWorker{
				op: pqMix(
					func() { ph.PeekMin() },
					func(k uint64) { ph.Insert(k) },
					func() { ph.ExtractMin() }),
				close: ph.Release,
			}
		}},
		{name: NativeEngineMutex, worker: func() nativeWorker {
			return nativeWorker{
				op:    pqMix(func() { mh.peekMin() }, mh.insert, mh.extractMin),
				close: func() {},
			}
		}},
	}, nil
}

// measurePoint runs one engine at one goroutine count: warmup window,
// then a measured window, both bounded by wall-clock deadlines checked
// per operation.
func measurePoint(eng nativeEngine, goroutines int, warmup, window time.Duration, seed uint64) (uint64, float64) {
	var warm, stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := eng.worker()
			defer w.close()
			rng := rand.New(rand.NewPCG(seed, uint64(g)))
			for !warm.Load() {
				w.op(rng)
			}
			var n uint64
			for !stop.Load() {
				w.op(rng)
				n++
			}
			total.Add(n)
		}(g)
	}
	time.Sleep(warmup)
	warm.Store(true)
	measureStart := time.Now()
	time.Sleep(window)
	stop.Store(true)
	elapsed := time.Since(measureStart)
	wg.Wait()
	ops := total.Load()
	return ops, float64(ops) / elapsed.Seconds()
}

// RunNativeSweep measures every (structure, engine, goroutines, mix)
// cell and returns the report.
func RunNativeSweep(opts NativeOptions) (*NativeReport, error) {
	opts.normalize()
	rep := &NativeReport{
		Kind:       NativeReportKind,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		DurationMS: opts.Duration.Milliseconds(),
		Keyspace:   opts.Keyspace,
	}
	warmup := opts.Duration / 3
	start := time.Now()
	seed := uint64(1)
	for _, readPct := range opts.ReadPcts {
		engines, err := hashEngines(opts.Keyspace, readPct)
		if err != nil {
			return nil, err
		}
		for _, eng := range engines {
			for _, g := range opts.Goroutines {
				seed++
				ops, rate := measurePoint(eng, g, warmup, opts.Duration, seed)
				rep.Points = append(rep.Points, NativePoint{
					Structure: NativeStructHash, Engine: eng.name,
					Goroutines: g, ReadPct: readPct,
					Ops: ops, OpsPerSec: rate,
				})
			}
		}
	}
	// One mixed PQ workload: 20% peek, updates split insert/extract.
	const pqReadPct = 20
	engines, err := pqEngines(pqReadPct)
	if err != nil {
		return nil, err
	}
	for _, eng := range engines {
		for _, g := range opts.Goroutines {
			seed++
			ops, rate := measurePoint(eng, g, warmup, opts.Duration, seed)
			rep.Points = append(rep.Points, NativePoint{
				Structure: NativeStructPQ, Engine: eng.name,
				Goroutines: g, ReadPct: pqReadPct,
				Ops: ops, OpsPerSec: rate,
			})
		}
	}
	rep.WallSec = time.Since(start).Seconds()
	return rep, nil
}

// Text renders the sweep as a table per (structure, mix), engines as
// columns, with the HCF-over-Mutex speedup on each row.
func (r *NativeReport) Text() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "native wall-clock sweep: GOMAXPROCS=%d NumCPU=%d window=%dms\n",
		r.GoMaxProcs, r.NumCPU, r.DurationMS)
	type cell struct {
		structure string
		readPct   int
	}
	groups := map[cell]map[int]map[string]float64{}
	engines := map[cell][]string{}
	var order []cell
	for _, p := range r.Points {
		c := cell{p.Structure, p.ReadPct}
		if groups[c] == nil {
			groups[c] = map[int]map[string]float64{}
			order = append(order, c)
		}
		if groups[c][p.Goroutines] == nil {
			groups[c][p.Goroutines] = map[string]float64{}
		}
		groups[c][p.Goroutines][p.Engine] = p.OpsPerSec
		found := false
		for _, e := range engines[c] {
			if e == p.Engine {
				found = true
			}
		}
		if !found {
			engines[c] = append(engines[c], p.Engine)
		}
	}
	for _, c := range order {
		fmt.Fprintf(&buf, "\n%s, %d%% reads (Mops/s):\n", c.structure, c.readPct)
		fmt.Fprintf(&buf, "%8s", "g")
		for _, e := range engines[c] {
			fmt.Fprintf(&buf, "%10s", e)
		}
		fmt.Fprintf(&buf, "%12s\n", "HCF/Mutex")
		var gs []int
		for g := range groups[c] {
			gs = append(gs, g)
		}
		sort.Ints(gs)
		for _, g := range gs {
			fmt.Fprintf(&buf, "%8d", g)
			for _, e := range engines[c] {
				fmt.Fprintf(&buf, "%10.2f", groups[c][g][e]/1e6)
			}
			if mx := groups[c][g][NativeEngineMutex]; mx > 0 {
				fmt.Fprintf(&buf, "%11.2fx", groups[c][g][NativeEngineHCF]/mx)
			}
			fmt.Fprintln(&buf)
		}
	}
	return buf.String()
}

// Encode renders the report as indented JSON (bench/BENCH_native.json).
func (r *NativeReport) Encode() ([]byte, error) { return encodeJSON(r) }

// Decode is the inverse of Encode, checking the record's kind.
func (r *NativeReport) Decode(data []byte) error {
	if err := decodeJSON(data, r, &r.Kind, NativeReportKind); err != nil {
		return err
	}
	if len(r.Points) == 0 {
		return fmt.Errorf("record has no points")
	}
	return nil
}

// Check fails if any cell completed no operation at all: a stalled
// engine, whatever the host's speed.
func (r *NativeReport) Check() error {
	for _, p := range r.Points {
		if p.Ops == 0 {
			return fmt.Errorf("native %s/%s g=%d read=%d%%: no operation completed", p.Structure, p.Engine, p.Goroutines, p.ReadPct)
		}
	}
	return nil
}

// nativeGate judges ops/s per cell. Wall-clock throughput shifts
// wholesale with the hardware, so absolute thresholds are useless
// across machines; each ratio is normalized by the median, and a cell
// fails only when it fell more than 2x below that median.
var nativeGate = Gate{Metric: "ops_per_sec", HigherIsBetter: true, Tolerance: 2, Normalize: true}

// Baseline implements GatedRecord.
func (r *NativeReport) Baseline() (Gate, []GatePoint) {
	pts := make([]GatePoint, len(r.Points))
	for i, p := range r.Points {
		pts[i] = GatePoint{
			Key:   fmt.Sprintf("%s/%s g=%d read=%d%%", p.Structure, p.Engine, p.Goroutines, p.ReadPct),
			Value: p.OpsPerSec,
		}
	}
	return nativeGate, pts
}
