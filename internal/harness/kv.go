package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hcf/internal/kvstore"
	"hcf/internal/metrics"
	"hcf/internal/workload"
)

// This file is the `kv` figure: a wall-clock, open-loop sweep of the
// persistent KV engine (internal/kvstore) under production-shaped load —
// Zipfian key popularity, get/put/delete mixes, arrivals from simulated
// user populations, sojourn tails and SLO verdicts through the same
// metrics pipeline as the simulated open-loop figure. Time is
// nanoseconds throughout (the recorder's unit is "ns"); arrival
// schedules reuse the cycle-domain workload generators with 1 cycle ≡
// 1 ns, so a population's ops/Mcycle is read as ops/ms.
//
// Each point also runs the crash-recovery acceptance check inline:
// after the drain, the index is dumped, the store closed and reopened,
// and the replayed index must be bit-identical to the witness dump.

// KVSweepOptions configures the kv figure sweep.
type KVSweepOptions struct {
	// Dir is where point databases live; "" uses a fresh temp dir. Each
	// point's database is deleted after its recovery check.
	Dir string
	// Workers is the number of client goroutines. 0 = max(8, 2*GOMAXPROCS).
	Workers int
	// Shards is the store's shard count (kvstore.Config). 0 = 4.
	Shards int
	// Users is the simulated-population ladder: each population of U
	// users with kvThinkMS think time offers U/Think aggregate ops/sec
	// (workload.NewPopulation). 0-length = {2000, 10000, 40000}.
	Users []uint64
	// GetPcts are the read mixes to sweep: each is the get percentage,
	// with the remainder split evenly between puts and deletes
	// (workload.UpdateMix). 0-length = {95, 50}.
	GetPcts []int
	// DurationMS is the arrival window per point. 0 = 400. The drain
	// past the window is unbounded — queued operations are charged
	// their full sojourn (no coordinated omission).
	DurationMS int64
	// Keys is the Zipfian keyspace size. 0 = 1<<16.
	Keys uint64
	// ValueLen is the put value size in bytes. 0 = 128.
	ValueLen int
	// Seed drives arrivals, keys and mixes.
	Seed uint64
	// DisableSync skips fsync (unit tests only — the checked-in figure
	// always syncs; it is a durability benchmark).
	DisableSync bool
}

// Fixed parameters of the kv figure, recorded in every KVReport.
const (
	kvCapacity = 1 << 17 // index slots per store (kvstore.Config)
	// kvThinkMS is each simulated user's think time in milliseconds
	// between operations, so Users is also the offered ops/sec.
	kvThinkMS = 1000
	kvTheta   = 0.9 // Zipfian skew (the paper's figure 5)
)

// DefaultKVSLO is the kv figure's sojourn objective set (nanoseconds):
// 99% of all operations within 10ms, and 99% of gets within 2ms. Gets
// get the tighter bound because they issue no write or fsync of their
// own; they still wait for a disk flush whenever a group commit holds
// the shard's index seqlock across its fsync, since a get that cannot
// validate is combined behind that batch.
func DefaultKVSLO() metrics.SLOConfig {
	return metrics.SLOConfig{
		Objectives: []metrics.Objective{
			{Threshold: 10_000_000, Target: 0.99},
			{Class: "get", Threshold: 2_000_000, Target: 0.99},
		},
	}
}

func (o *KVSweepOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = max(8, 2*runtime.GOMAXPROCS(0))
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if len(o.Users) == 0 {
		o.Users = []uint64{2000, 10000, 40000}
	}
	if len(o.GetPcts) == 0 {
		o.GetPcts = []int{95, 50}
	}
	if o.DurationMS <= 0 {
		o.DurationMS = 400
	}
	if o.Keys == 0 {
		o.Keys = 1 << 16
	}
	if o.ValueLen <= 0 {
		o.ValueLen = 128
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// KVPoint is one (population, mix) measurement.
type KVPoint struct {
	Users     uint64  `json:"users"`
	RateOps   float64 `json:"rate_ops_per_sec"` // offered: users/think
	GetPct    int     `json:"get_pct"`
	Workers   int     `json:"workers"`
	Arrivals  uint64  `json:"arrivals"`
	Completed uint64  `json:"completed"`
	// HorizonMS is the arrival window; MakespanMS when the last op
	// finished. Makespan >> horizon means offered load exceeded capacity.
	HorizonMS  int64   `json:"horizon_ms"`
	MakespanMS float64 `json:"makespan_ms"`
	Throughput float64 `json:"throughput_ops_per_sec"`
	Saturated  bool    `json:"saturated"`
	// Sojourn is intended-arrival-to-completion latency in nanoseconds.
	Sojourn  SojournStat          `json:"sojourn"`
	ByClass  []ClassSojourn       `json:"by_class,omitempty"`
	SLOState string               `json:"slo_state"`
	SLO      *metrics.SLOSnapshot `json:"slo,omitempty"`
	// Group-commit evidence: flushes (one append+fsync each), the mean
	// number of writes amortized per flush, and the flush-latency tail.
	Flushes        uint64  `json:"flushes"`
	WritesPerFlush float64 `json:"writes_per_flush"`
	FlushP50NS     uint64  `json:"flush_p50_ns"`
	FlushP99NS     uint64  `json:"flush_p99_ns"`
	AppendedBytes  uint64  `json:"appended_bytes"`
	// RecoveryOK reports the inline crash-recovery check: reopening the
	// database rebuilt an index bit-identical to the pre-close witness.
	RecoveryOK bool `json:"recovery_ok"`
}

// KVReport is a full kv sweep.
type KVReport struct {
	Figure     string    `json:"figure"`
	Workers    int       `json:"workers"`
	Shards     int       `json:"shards"`
	DurationMS int64     `json:"duration_ms"`
	ThinkMS    int64     `json:"think_ms"`
	Keys       uint64    `json:"keys"`
	Theta      float64   `json:"theta"`
	ValueLen   int       `json:"value_len"`
	Seed       uint64    `json:"seed"`
	Users      []uint64  `json:"users"`
	GetPcts    []int     `json:"get_pcts"`
	Points     []KVPoint `json:"-"`
}

// RunKVSweep measures every (population, mix) pair in sequence (points
// share the host's cores and disk, so running them concurrently would
// contaminate the tails).
func RunKVSweep(opts KVSweepOptions) (*KVReport, error) {
	opts.normalize()
	dir := opts.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "hcf-kv-sweep-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	rep := &KVReport{
		Figure:     "kv",
		Workers:    opts.Workers,
		Shards:     opts.Shards,
		DurationMS: opts.DurationMS,
		ThinkMS:    kvThinkMS,
		Keys:       opts.Keys,
		Theta:      kvTheta,
		ValueLen:   opts.ValueLen,
		Seed:       opts.Seed,
		Users:      opts.Users,
		GetPcts:    opts.GetPcts,
	}
	for _, users := range opts.Users {
		for _, pct := range opts.GetPcts {
			pdir := filepath.Join(dir, fmt.Sprintf("u%d-g%d", users, pct))
			p, err := runKVPoint(pdir, users, pct, opts)
			os.RemoveAll(pdir)
			if err != nil {
				return nil, err
			}
			rep.Points = append(rep.Points, p)
		}
	}
	return rep, nil
}

// runKVPoint measures one population+mix against a fresh database, then
// runs the crash-recovery replay check on what the workload wrote.
func runKVPoint(dir string, users uint64, getPct int, opts KVSweepOptions) (KVPoint, error) {
	mix, err := workload.UpdateMix(getPct)
	if err != nil {
		return KVPoint{}, err
	}
	zipf, err := workload.NewZipf(opts.Keys, kvTheta)
	if err != nil {
		return KVPoint{}, err
	}
	horizon := opts.DurationMS * int64(time.Millisecond)
	// Split the user population across workers; low-index workers take
	// the remainder so small populations still generate load. Each
	// arrival's op is drawn here, before the clock starts.
	procs := make([]workload.Poisson, opts.Workers)
	for w := range procs {
		share := users / uint64(opts.Workers)
		if uint64(w) < users%uint64(opts.Workers) {
			share++
		}
		if share == 0 {
			continue
		}
		if procs[w], err = workload.NewPopulation(share, kvThinkMS*int64(time.Millisecond)); err != nil {
			return KVPoint{}, err
		}
	}
	schedules, totalArrivals := arrivalSchedules(opts.Seed, horizon, procs)
	ops := make([][]uint64, opts.Workers)
	for w := range ops {
		ops[w] = drawOps(len(schedules[w]), zipf, mix, opStream(opts.Seed, w))
	}

	tally, err := newSojournTally(opts.Workers, []string{"get", "put", "delete"}, "ns", DefaultKVSLO(), horizon)
	if err != nil {
		return KVPoint{}, err
	}
	store, err := kvstore.Open(dir, kvstore.Config{
		Shards:      opts.Shards,
		Capacity:    kvCapacity,
		MaxHandles:  opts.Workers + 1,
		DisableSync: opts.DisableSync,
	})
	if err != nil {
		return KVPoint{}, err
	}

	wall, err := runClients(opts.Workers, func(w int, epoch time.Time) error {
		h, err := store.Handle()
		if err != nil {
			return err
		}
		defer h.Release()
		val := make([]byte, opts.ValueLen)
		for i, intended := range schedules[w] {
			if wait := time.Duration(intended) - time.Since(epoch); wait > 0 {
				time.Sleep(wait)
			}
			key, class := ops[w][i]>>2, int(ops[w][i]&3)
			switch class {
			case opRead:
				_, _, err = h.Get(key)
			case opWrite:
				for j := range val {
					val[j] = byte(key + uint64(j))
				}
				_, err = h.Put(key, val)
			default:
				_, err = h.Delete(key)
			}
			if err != nil {
				return err
			}
			now := int64(time.Since(epoch))
			tally.rec.RecordOp(w, class, 0, now-intended)
			if w == 0 {
				tally.tick(now)
			}
		}
		return nil
	})
	if err != nil {
		store.Close()
		return KVPoint{}, err
	}

	// The record's makespan is clamped to the window, and its throughput
	// is per second where the summary's is per million ns.
	run, byClass, slo, state := tally.summarize(totalArrivals, horizon, max(int64(wall), horizon))
	pt := KVPoint{
		Users:      users,
		RateOps:    float64(users) * 1000 / kvThinkMS,
		GetPct:     getPct,
		Workers:    opts.Workers,
		Arrivals:   run.Arrivals,
		Completed:  run.Completed,
		HorizonMS:  opts.DurationMS,
		MakespanMS: float64(run.Makespan) / 1e6,
		Throughput: run.Throughput * 1e3,
		Saturated:  run.Saturated,
		Sojourn:    run.Sojourn,
		ByClass:    byClass,
		SLOState:   state,
		SLO:        slo,
	}

	st := store.Stats()
	pt.Flushes = st.Flushes
	pt.AppendedBytes = st.AppendedBytes
	// The store samples its batch histograms without fsync; the
	// recorder's put and delete counts are every write the point made
	// (it starts from an empty store).
	writes := tally.rec.ClassHistogram(opWrite).Count + tally.rec.ClassHistogram(opDelete).Count
	if st.Flushes > 0 {
		pt.WritesPerFlush = float64(writes) / float64(st.Flushes)
	}
	pt.FlushP50NS = st.FlushNanos.Quantile(0.50)
	pt.FlushP99NS = st.FlushNanos.Quantile(0.99)

	// Crash-recovery replay check: the reopened index must be
	// bit-identical to the witness dump of what the workload built.
	witness := store.IndexDump()
	if err := store.Close(); err != nil {
		return KVPoint{}, err
	}
	reopened, err := kvstore.Open(dir, kvstore.Config{
		Shards:   opts.Shards,
		Capacity: kvCapacity,
	})
	if err != nil {
		return KVPoint{}, fmt.Errorf("kv recovery reopen: %w", err)
	}
	pt.RecoveryOK = bytes.Equal(reopened.IndexDump(), witness)
	if err := reopened.Close(); err != nil {
		return KVPoint{}, err
	}
	return pt, nil
}

// Encode renders the sweep as JSON Lines (header, then one line per
// point): the format checked in under bench/KV_sweep.jsonl.
func (r *KVReport) Encode() ([]byte, error) { return encodeJSONL(r, r.Points) }

// Decode is the inverse of Encode.
func (r *KVReport) Decode(data []byte) error { return decodeJSONL(data, r, &r.Points) }

// Text renders the sweep as an aligned table.
func (r *KVReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kv: open-loop KV engine sweep, %d workers, %d shards, %dms window, think %dms, zipf(%d, %.2f), %dB values, seed %d\n",
		r.Workers, r.Shards, r.DurationMS, r.ThinkMS, r.Keys, r.Theta, r.ValueLen, r.Seed)
	fmt.Fprintf(&b, "sojourn in µs from intended arrival; group commit = one append+fsync per combined batch\n\n")
	fmt.Fprintf(&b, "  %7s %4s %9s %9s %8s %8s %8s %8s %7s %9s %6s %4s %4s\n",
		"users", "get%", "offered/s", "achieved", "p50µs", "p99µs", "p999µs", "maxµs",
		"flushes", "wr/flush", "slo", "sat", "rec")
	for _, p := range r.Points {
		sat, rec := "", "ok"
		if p.Saturated {
			sat = "*"
		}
		if !p.RecoveryOK {
			rec = "FAIL"
		}
		fmt.Fprintf(&b, "  %7d %4d %9.0f %9.0f %8.1f %8.1f %8.1f %8.1f %7d %9.2f %6s %4s %4s\n",
			p.Users, p.GetPct, p.RateOps, p.Throughput,
			float64(p.Sojourn.P50)/1e3, float64(p.Sojourn.P99)/1e3,
			float64(p.Sojourn.P999)/1e3, float64(p.Sojourn.Max)/1e3,
			p.Flushes, p.WritesPerFlush, p.SLOState, sat, rec)
	}
	return b.String()
}

// Check fails if any point's crash-recovery replay diverged from its
// witness dump.
func (r *KVReport) Check() error {
	for _, p := range r.Points {
		if !p.RecoveryOK {
			return fmt.Errorf("kv point users=%d get=%d%%: crash-recovery replay mismatch", p.Users, p.GetPct)
		}
	}
	return nil
}

// kvGate judges sojourn p99 per (users, mix) point, normalized by the
// lower median ratio so uniform disk and hardware shifts between the
// recording machine and CI pass. Points under 500 completed operations
// stay out of the ratio gate: there the p99 is an order statistic of
// the top one or two samples, so a single fsync stall flips the
// verdict, and short CI windows at low offered loads sit exactly there.
var kvGate = Gate{Metric: "sojourn p99", Tolerance: 2, Normalize: true, MinSamples: 500}

// Baseline implements GatedRecord.
func (r *KVReport) Baseline() (Gate, []GatePoint) {
	pts := make([]GatePoint, len(r.Points))
	for i, p := range r.Points {
		pts[i] = GatePoint{
			Key:     fmt.Sprintf("users=%d get=%d%%", p.Users, p.GetPct),
			Value:   float64(p.Sojourn.P99),
			Samples: p.Sojourn.Count,
		}
	}
	return kvGate, pts
}
