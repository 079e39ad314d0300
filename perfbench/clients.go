package main

import (
	"slices"
	"sync"
	"time"

	"hcf/native"
)

// numClients is the number of client goroutines of the closed-loop
// workloads: nproc on the 2-CPU host the benchmark was sized on.
const numClients = 2

// sampleEvery: on the native workloads one operation in this many is
// timed, so the two clock reads stay a small share of a 100-300 ns
// operation. KV operations take microseconds; kv-mixed times every one.
const sampleEvery = 8

// spanEvery: in traced rounds one operation in this many also records a
// span (a multiple of sampleEvery, so spans reuse the latency clock reads).
const spanEvery = 64

// client is one closed-loop client goroutine's state for one round.
type client struct {
	id, round int
	every     int // time one operation in every

	reads, writes []int64  // sampled latencies, ns
	spans         *spanLog // nil when the round is untraced
	fails         uint64
}

func newClients(round, opsPerClient, every int, log *spanLog) []*client {
	cls := make([]*client, numClients)
	for i := range cls {
		n := opsPerClient/every + 1
		cls[i] = &client{
			id: i, round: round, every: every,
			reads:  make([]int64, 0, n),
			writes: make([]int64, 0, n),
		}
		if log != nil {
			cls[i].spans = log.fork()
		}
	}
	return cls
}

// sampled reports whether operation i is timed.
func (cl *client) sampled(i int) bool { return i%cl.every == 0 }

// timed records the latency of sampled operation i, started at t0, and in
// traced rounds its span when spanned is set.
func (cl *client) timed(i int, spanned, write bool, name, layer string, t0 time.Time) {
	t1 := time.Now()
	d := t1.Sub(t0).Nanoseconds()
	if write {
		cl.writes = append(cl.writes, d)
	} else {
		cl.reads = append(cl.reads, d)
	}
	if cl.spans != nil && spanned {
		l := cl.spans
		l.spans = append(l.spans, span{spanID(cl.round, cl.id, i+1), spanID(cl.round, cl.id, 0),
			name, layer, cl.id + 1, l.at(t0), l.at(t1)})
	}
}

// runClients starts one goroutine per client, releases them together and
// returns the wall time until the last one finished. Each client's
// stream is wrapped in a root span in traced rounds.
func runClients(cls []*client, fn func(cl *client)) time.Duration {
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(len(cls))
	done.Add(len(cls))
	for _, cl := range cls {
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			t0 := time.Now()
			fn(cl)
			if cl.spans != nil {
				cl.spans.record(spanID(cl.round, cl.id, 0), 0, "client", "perfbench", cl.id+1, t0)
			}
		}()
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	return time.Since(t0)
}

// series collects one value per round for each named quantity.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) med(name string) float64    { return median(s[name]) }

// closedLoop is the part of a native or KV round common to every
// workload: after the timed phase it gathers the clients' latency
// samples, failures and spans.
type closedLoop struct {
	res    *result
	s      series
	log    *spanLog // whole-run span log; nil when untraced
	ops    int      // operations per round (both clients)
	round  int      // the current round
	traced bool     // the current round records spans
}

func newClosedLoop(c *config, ops int) *closedLoop {
	cl := &closedLoop{res: newResult(), s: series{}, ops: ops}
	if c.trace {
		cl.log = newSpanLog()
		cl.res.spans = cl.log
	}
	return cl
}

// minRounds: round 0 warms up (caches, page faults, the scheduler) and
// is checked but not measured; traced runs then alternate untraced and
// traced rounds.
func (l *closedLoop) minRounds() int {
	if l.log != nil {
		return 3
	}
	return 2
}

// roundLog returns the span log for round r, or nil when r is untraced.
func (l *closedLoop) roundLog(r int) *spanLog {
	l.round = r
	l.traced = l.log != nil && r > 0 && r%2 == 0
	if l.traced {
		return l.log
	}
	return nil
}

// measured reports whether the current round's figures count: it is
// neither the warm-up round nor traced.
func (l *closedLoop) measured() bool { return l.round > 0 && !l.traced }

// measure adds a value of the current round unless it is the warm-up.
func (l *closedLoop) measure(name string, v float64) {
	if l.round > 0 {
		l.s.add(name, v)
	}
}

// finish folds one round's clients into the run. primary selects the
// samples behind op_p50_us/op_p99_us: "read", "write" or "all".
func (l *closedLoop) finish(cls []*client, wall time.Duration, primary string) {
	var reads, writes []int64
	for _, c := range cls {
		l.res.failed += c.fails
		reads = append(reads, c.reads...)
		writes = append(writes, c.writes...)
		if c.spans != nil {
			l.log.merge(c.spans)
		}
	}
	l.res.attempted += uint64(l.ops)
	opsPerS := float64(l.ops) / wall.Seconds()
	if l.round == 0 {
		return
	}
	if l.traced {
		l.s.add("traced_ops_per_s", opsPerS)
		return
	}
	l.s.add("ops_per_s", opsPerS)
	slices.Sort(reads)
	slices.Sort(writes)
	var op []int64
	switch primary {
	case "read":
		op = reads
	case "write":
		op = writes
	default:
		op = append(slices.Clone(reads), writes...)
		slices.Sort(op)
	}
	l.s.add("op_p50_us", quantileNS(op, 0.50))
	l.s.add("op_p99_us", quantileNS(op, 0.99))
	if supportsQuantile(len(op), 0.999) {
		l.s.add("op_p999_us", quantileNS(op, 0.999))
	}
	l.s.add("op_samples", float64(len(op)))
	for _, k := range []struct {
		name string
		v    []int64
	}{{"read", reads}, {"write", writes}} {
		if len(k.v) == 0 {
			continue
		}
		l.s.add(k.name+"_p50_us", quantileNS(k.v, 0.50))
		l.s.add(k.name+"_p99_us", quantileNS(k.v, 0.99))
		if supportsQuantile(len(k.v), 0.999) {
			l.s.add(k.name+"_p999_us", quantileNS(k.v, 0.999))
		}
		l.s.add(k.name+"_samples", float64(len(k.v)))
	}
}

// done fills the end-to-end metrics and the closed-loop diagnostics
// shared by the native and KV workloads.
func (l *closedLoop) done(rounds int, heapMB float64) *result {
	r, s := l.res, l.s
	r.rounds, r.opsPerRound = rounds, l.ops
	r.metrics["setup_s"] = s.med("setup_s")
	r.metrics["ops_per_s"] = s.med("ops_per_s")
	r.metrics["op_p50_us"] = s.med("op_p50_us")
	r.metrics["op_p99_us"] = s.med("op_p99_us")
	r.metrics["op_p999_us"] = s.med("op_p999_us")
	r.metrics["live_heap_mb"] = heapMB
	r.metrics["solo_ns_per_op"] = s.med("solo_ns_per_op")
	if l.log != nil {
		r.metrics["trace.overhead_pct"] = 100 * (s.med("ops_per_s")/s.med("traced_ops_per_s") - 1)
	}
	r.note("op_samples", s.med("op_samples"), "count", "timed ops behind op_p50/p99 per round (median)")
	for _, k := range []string{"read", "write"} {
		if len(s[k+"_samples"]) == 0 {
			continue
		}
		for _, q := range []string{"p50", "p99", "p999"} {
			if v, ok := s[k+"_"+q+"_us"]; ok {
				r.note(k+"_"+q+"_us", median(v), "us", "")
			}
		}
		r.note(k+"_samples", s.med(k+"_samples"), "count", "timed per round (median)")
	}
	return r
}

// nativeLayer fills the internal/native per-layer metrics from the
// framework counters accumulated over the measured phases.
func nativeLayer(r *result, m native.Metrics) {
	r.metrics["native.spec_read_hit_pct"] = pct(m.SpecReadHits, m.Ops)
	r.metrics["native.spec_write_hit_pct"] = pct(m.SpecWriteHits, m.Ops)
	r.metrics["native.spec_abort_ratio"] = ratio(m.SpecAborts, m.SpecAttempts)
	r.metrics["native.announce_pct"] = pct(m.Announces, m.Ops)
	r.metrics["native.combining_degree"] = m.CombiningDegree()
	r.metrics["native.helped_pct"] = pct(m.Helped, m.Ops)
	r.metrics["native.parks_per_mop"] = 1e6 * ratio(m.Parks, m.Ops)
}

// subMetrics returns a - b counter by counter.
func subMetrics(a, b native.Metrics) native.Metrics {
	return native.Metrics{
		Ops:              a.Ops - b.Ops,
		SpecAttempts:     a.SpecAttempts - b.SpecAttempts,
		SpecAborts:       a.SpecAborts - b.SpecAborts,
		SpecReadHits:     a.SpecReadHits - b.SpecReadHits,
		SpecWriteHits:    a.SpecWriteHits - b.SpecWriteHits,
		Announces:        a.Announces - b.Announces,
		LockAcquisitions: a.LockAcquisitions - b.LockAcquisitions,
		CombinerSessions: a.CombinerSessions - b.CombinerSessions,
		CombinedOps:      a.CombinedOps - b.CombinedOps,
		Helped:           a.Helped - b.Helped,
		Parks:            a.Parks - b.Parks,
	}
}
