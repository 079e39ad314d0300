package harness

// Native wall-clock sweep: drives the native (direct-atomics) HCF
// backend and the stdlib baselines everyone benchmarks against —
// sync.Mutex, sync.RWMutex, sync.Map — across goroutine counts and
// read/write mixes, measuring real operations per second. Each cell's
// seeded operation streams are drawn before the clock starts and run in
// fixed-size rounds; a cell reports the median round rate after a
// warm-up round. This is the wall-clock counterpart of the simulated
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
	"slices"
	"sync"
	"time"

	"hcf/internal/native/pqueue"
	"hcf/internal/workload"
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
	// Duration is each cell's wall-clock budget (default 150ms), the
	// warm-up round included.
	Duration time.Duration
}

func (o *NativeOptions) normalize() {
	if len(o.Goroutines) == 0 {
		o.Goroutines = []int{1, 2, 4, 8}
		if n := runtime.NumCPU(); n > 8 {
			o.Goroutines = append(o.Goroutines, n)
		}
	}
	if o.Duration <= 0 {
		o.Duration = 150 * time.Millisecond
	}
}

const (
	// nativeKeyspace is the hashtable key range, prefilled to half
	// occupancy.
	nativeKeyspace = 1 << 14
	// nativeRoundOps is the number of operations in one round of a
	// cell, split evenly across its goroutines: a few milliseconds at
	// the fastest cells' rates, so even the slowest fit several rounds
	// in an 80ms budget.
	nativeRoundOps = 1 << 16
	// pqKeys bounds the priority-queue insert keys.
	pqKeys = 1 << 20
)

// NativePoint is one measured (structure, engine, goroutines, mix) cell.
type NativePoint struct {
	Structure  string  `json:"structure"`
	Engine     string  `json:"engine"`
	Goroutines int     `json:"goroutines"`
	ReadPct    int     `json:"read_pct"`
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// CombiningDegree is the HCF engine's operations per combining
	// session over the measured rounds (0 when no session ran, and for
	// the stdlib engines).
	CombiningDegree float64 `json:"combining_degree,omitempty"`
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

// nativeClient is one goroutine's view of an engine's structure: the
// operation each stream kind maps to, and the handle release to call
// when the client is done (nil for the stdlib engines).
type nativeClient struct {
	read, write, del func(k uint64)
	release          func()
}

// run applies one stream of encoded ops (key<<2 | kind).
func (c nativeClient) run(stream []uint64) {
	for _, op := range stream {
		switch k := op >> 2; op & 3 {
		case opRead:
			c.read(k)
		case opWrite:
			c.write(k)
		default:
			c.del(k)
		}
	}
}

// nativeEngine builds per-goroutine clients over one shared structure.
// metrics, set for the HCF engines, reads the framework's counters.
type nativeEngine struct {
	name    string
	client  func() nativeClient
	metrics func() native.Metrics
}

// nativeWorkload is one (structure, mix) row of the sweep. handles is
// the native structure's handle limit, so the most goroutines a cell
// can run.
type nativeWorkload struct {
	structure string
	readPct   int
	keys      workload.KeyGen
	handles   int
	engines   []nativeEngine
}

// hashWorkload builds the four hashtable contenders, each prefilled to
// half the keyspace.
func hashWorkload(readPct int) (nativeWorkload, error) {
	const prefill = nativeKeyspace / 2
	nm, err := native.NewMap(2 * nativeKeyspace)
	if err != nil {
		return nativeWorkload{}, err
	}
	h := nm.Handle()
	for k := uint64(0); k < prefill; k++ {
		h.Put(k*2, k)
	}
	h.Release()

	mm := struct {
		sync.Mutex
		m map[uint64]uint64
	}{m: make(map[uint64]uint64, nativeKeyspace)}
	rm := struct {
		sync.RWMutex
		m map[uint64]uint64
	}{m: make(map[uint64]uint64, nativeKeyspace)}
	var sm sync.Map
	for k := uint64(0); k < prefill; k++ {
		mm.m[k*2] = k
		rm.m[k*2] = k
		sm.Store(k*2, k)
	}

	return nativeWorkload{NativeStructHash, readPct, workload.Uniform{N: nativeKeyspace}, nm.Framework().MaxHandles(), []nativeEngine{
		{name: NativeEngineHCF, client: func() nativeClient {
			mh := nm.Handle()
			return nativeClient{
				read:    func(k uint64) { mh.Get(k) },
				write:   func(k uint64) { mh.Put(k, k+1) },
				del:     func(k uint64) { mh.Delete(k) },
				release: mh.Release,
			}
		}, metrics: nm.Framework().Metrics},
		{name: NativeEngineMutex, client: func() nativeClient {
			return nativeClient{
				read:  func(k uint64) { mm.Lock(); _ = mm.m[k]; mm.Unlock() },
				write: func(k uint64) { mm.Lock(); mm.m[k] = k + 1; mm.Unlock() },
				del:   func(k uint64) { mm.Lock(); delete(mm.m, k); mm.Unlock() },
			}
		}},
		{name: NativeEngineRWMutex, client: func() nativeClient {
			return nativeClient{
				read:  func(k uint64) { rm.RLock(); _ = rm.m[k]; rm.RUnlock() },
				write: func(k uint64) { rm.Lock(); rm.m[k] = k + 1; rm.Unlock() },
				del:   func(k uint64) { rm.Lock(); delete(rm.m, k); rm.Unlock() },
			}
		}},
		{name: NativeEngineSyncMap, client: func() nativeClient {
			return nativeClient{
				read:  func(k uint64) { sm.Load(k) },
				write: func(k uint64) { sm.Store(k, k+1) },
				del:   func(k uint64) { sm.Delete(k) },
			}
		}},
	}}, nil
}

const pqPrefill = 4096

// pqWorkload builds the two priority-queue contenders: reads peek,
// writes insert, deletes extract the minimum.
func pqWorkload(readPct int) (nativeWorkload, error) {
	np, err := native.NewPQueue(pqKeys)
	if err != nil {
		return nativeWorkload{}, err
	}
	h := np.Handle()
	for k := uint64(0); k < pqPrefill; k++ {
		h.Insert(k)
	}
	h.Release()

	// The Mutex contender is the same queue under a sync.Mutex, so the
	// pair differs only in synchronization.
	mq := struct {
		sync.Mutex
		q *pqueue.Queue
	}{q: pqueue.New(pqKeys)}
	for k := uint64(0); k < pqPrefill; k++ {
		mq.q.Insert(k)
	}

	return nativeWorkload{NativeStructPQ, readPct, workload.Uniform{N: pqKeys}, np.Framework().MaxHandles(), []nativeEngine{
		{name: NativeEngineHCF, client: func() nativeClient {
			ph := np.Handle()
			return nativeClient{
				read:    func(uint64) { ph.PeekMin() },
				write:   ph.Insert,
				del:     func(uint64) { ph.ExtractMin() },
				release: ph.Release,
			}
		}, metrics: np.Framework().Metrics},
		{name: NativeEngineMutex, client: func() nativeClient {
			return nativeClient{
				read:  func(uint64) { mq.Lock(); mq.q.PeekMin(); mq.Unlock() },
				write: func(k uint64) { mq.Lock(); mq.q.Insert(k); mq.Unlock() },
				del:   func(uint64) { mq.Lock(); mq.q.ExtractMin(); mq.Unlock() },
			}
		}},
	}}, nil
}

// measureCell runs one engine over a cell's streams, one client per
// stream: a warm-up round, then measured rounds while the next one
// still fits the budget. It returns the measured operations, the median
// round rate in ops/s, and the measured rounds' combining degree (0 for
// engines without framework metrics).
func measureCell(eng nativeEngine, streams [][]uint64, budget time.Duration) (uint64, float64, float64) {
	roundOps := len(streams) * len(streams[0])
	var rates []float64
	var before native.Metrics
	roundLoop(budget, 2, func(r int) {
		if r == 1 && eng.metrics != nil {
			before = eng.metrics()
		}
		// Native clients cannot fail.
		wall, _ := runClients(len(streams), func(i int, _ time.Time) error {
			c := eng.client()
			if c.release != nil {
				defer c.release()
			}
			c.run(streams[i])
			return nil
		})
		if r > 0 {
			rates = append(rates, float64(roundOps)/wall.Seconds())
		}
	})
	degree := 0.0
	if eng.metrics != nil {
		after := eng.metrics()
		if s := after.CombinerSessions - before.CombinerSessions; s > 0 {
			degree = float64(after.CombinedOps-before.CombinedOps) / float64(s)
		}
	}
	return uint64(roundOps * len(rates)), median(rates), degree
}

// RunNativeSweep measures every (structure, engine, goroutines, mix)
// cell and returns the report. The engines of one (structure, mix,
// goroutines) cell run the same seeded streams, back to back.
func RunNativeSweep(opts NativeOptions) (*NativeReport, error) {
	opts.normalize()
	var work []nativeWorkload
	for _, readPct := range []int{90, 50} {
		w, err := hashWorkload(readPct)
		if err != nil {
			return nil, err
		}
		work = append(work, w)
	}
	// One mixed PQ workload: 20% peek, updates split insert/extract.
	w, err := pqWorkload(20)
	if err != nil {
		return nil, err
	}
	work = append(work, w)
	lo, hi := slices.Min(opts.Goroutines), slices.Max(opts.Goroutines)
	for _, w := range work {
		if lo < 1 || hi > w.handles {
			return nil, fmt.Errorf("native %s: goroutine counts %v, want 1 to %d (its handle limit)", w.structure, opts.Goroutines, w.handles)
		}
	}

	rep := &NativeReport{
		Kind:       NativeReportKind,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		DurationMS: opts.Duration.Milliseconds(),
		Keyspace:   nativeKeyspace,
	}
	start := time.Now()
	seed := uint64(1)
	for _, w := range work {
		mix, err := workload.UpdateMix(w.readPct)
		if err != nil {
			return nil, err
		}
		for _, g := range opts.Goroutines {
			seed++
			streams := make([][]uint64, g)
			for i := range streams {
				streams[i] = drawOps(nativeRoundOps/g, w.keys, mix, rand.New(rand.NewPCG(seed, uint64(i))))
			}
			for _, eng := range w.engines {
				ops, rate, degree := measureCell(eng, streams, opts.Duration)
				rep.Points = append(rep.Points, NativePoint{
					Structure: w.structure, Engine: eng.name,
					Goroutines: g, ReadPct: w.readPct,
					Ops: ops, OpsPerSec: rate, CombiningDegree: degree,
				})
			}
		}
	}
	rep.WallSec = time.Since(start).Seconds()
	return rep, nil
}

// Text renders the sweep as a table per (structure, mix), engines as
// columns, with the HCF-over-Mutex speedup on each row. It relies on
// RunNativeSweep's point order: one run of points per (structure, mix,
// goroutines) row, engines innermost.
func (r *NativeReport) Text() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "native wall-clock sweep: GOMAXPROCS=%d NumCPU=%d budget=%dms per cell\n",
		r.GoMaxProcs, r.NumCPU, r.DurationMS)
	for i := 0; i < len(r.Points); {
		p := r.Points[i]
		j := i + 1
		for j < len(r.Points) && r.Points[j].Structure == p.Structure &&
			r.Points[j].ReadPct == p.ReadPct && r.Points[j].Goroutines == p.Goroutines {
			j++
		}
		row := r.Points[i:j]
		if i == 0 || r.Points[i-1].Structure != p.Structure || r.Points[i-1].ReadPct != p.ReadPct {
			fmt.Fprintf(&buf, "\n%s, %d%% reads (Mops/s):\n%8s", p.Structure, p.ReadPct, "g")
			for _, q := range row {
				fmt.Fprintf(&buf, "%10s", q.Engine)
			}
			fmt.Fprintf(&buf, "%12s%9s\n", "HCF/Mutex", "HCF deg")
		}
		fmt.Fprintf(&buf, "%8d", p.Goroutines)
		rate := map[string]float64{}
		var degree float64
		for _, q := range row {
			fmt.Fprintf(&buf, "%10.2f", q.OpsPerSec/1e6)
			rate[q.Engine] = q.OpsPerSec
			if q.Engine == NativeEngineHCF {
				degree = q.CombiningDegree
			}
		}
		if mx := rate[NativeEngineMutex]; mx > 0 {
			fmt.Fprintf(&buf, "%11.2fx%9.2f", rate[NativeEngineHCF]/mx, degree)
		}
		fmt.Fprintln(&buf)
		i = j
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
