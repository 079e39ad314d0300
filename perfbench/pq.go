package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"hcf/native"
)

// pqInputs is pq-pairs' generated input: the prefill and each client's
// Insert keys (every Insert is followed by an ExtractMin).
type pqInputs struct {
	prefill []uint64
	inserts [numClients][]uint64
	// count and sum of every key that enters the queue.
	count, sum uint64
}

func genPQ(seed uint64, sz sizes) *pqInputs {
	r := rand.New(rand.NewPCG(seed, 0x9B1))
	key := func() uint64 { return r.Uint64() >> 2 } // results carry 63 bits
	in := &pqInputs{prefill: make([]uint64, sz.pqPrefill)}
	for i := range in.prefill {
		in.prefill[i] = key()
		in.count++
		in.sum += in.prefill[i]
	}
	for c := range in.inserts {
		ks := make([]uint64, sz.pqOps/numClients/2)
		for i := range ks {
			ks[i] = key()
			in.count++
			in.sum += ks[i]
		}
		in.inserts[c] = ks
	}
	return in
}

// runPQ is pq-pairs: native.PQueue, two clients, each alternating
// Insert(random key) and ExtractMin over a 4096-key prefill, so the heap
// stays at constant size and every operation conflicts at the root.
func runPQ(c *config) (*result, error) {
	sz := c.sizes
	in := genPQ(c.seed, sz)
	ops := 2 * numClients * len(in.inserts[0])
	l := newClosedLoop(c, ops)
	var total native.Metrics
	var q *native.PQueue
	rounds, err := roundLoop(c.seconds, l.minRounds(), func(r int) error {
		q = nil
		runtime.GC()
		log := l.roundLog(r)
		t0 := time.Now()
		var err error
		q, err = native.NewPQueue(2*len(in.prefill) + 2*numClients)
		if err != nil {
			return err
		}
		h := q.Handle()
		for _, k := range in.prefill {
			h.Insert(k)
		}
		hs := [numClients]*native.PQueueHandle{h, q.Handle()}
		l.s.add("setup_s", time.Since(t0).Seconds())
		if log != nil {
			log.record(spanID(r, -1, 1), 0, "setup", "perfbench", 0, t0)
		}
		// extracted counts and sums every key that leaves the queue.
		var extracted [numClients + 1]struct{ count, sum uint64 }
		if c.trace {
			n := min(sz.pqSolo/2, len(in.inserts[0]))
			solo := newClients(r, 2*n, sampleEvery, nil)[0]
			wall := runClients([]*client{solo}, func(cl *client) {
				extracted[numClients].count, extracted[numClients].sum = pqClient(hs[0], in.inserts[0][:n], cl, c)
			})
			l.measure("solo_ns_per_op", float64(wall.Nanoseconds())/float64(2*n))
			l.res.failed += solo.fails
		}
		before := q.Framework().Metrics()
		cls := newClients(r, ops/numClients, sampleEvery, log)
		wall := runClients(cls, func(cl *client) {
			extracted[cl.id].count, extracted[cl.id].sum = pqClient(hs[cl.id], in.inserts[cl.id], cl, c)
		})
		if l.measured() {
			d := subMetrics(q.Framework().Metrics(), before)
			total.Merge(&d)
		}
		l.finish(cls, wall, "all")
		hs[1].Release()

		// Drain: extracted ∪ remaining must equal prefill ∪ inserted, and
		// the remaining keys must come out in order.
		var got struct{ count, sum uint64 }
		for _, e := range extracted {
			got.count += e.count
			got.sum += e.sum
		}
		if q.Len() != len(in.prefill) {
			l.res.fail("round %d: queue holds %d keys after the pairs, want %d", r, q.Len(), len(in.prefill))
		}
		prev := uint64(0)
		for {
			k, ok := h.ExtractMin()
			if !ok {
				break
			}
			if k < prev {
				l.res.fail("round %d: drain out of order (%d after %d)", r, k, prev)
			}
			prev = k
			got.count++
			got.sum += k
		}
		h.Release()
		want := struct{ count, sum uint64 }{in.count, in.sum}
		if c.trace {
			// The solo phase re-inserted a prefix of client 0's keys.
			for _, k := range in.inserts[0][:min(sz.pqSolo/2, len(in.inserts[0]))] {
				want.count++
				want.sum += k
			}
		}
		if got != want {
			l.res.fail("round %d: extracted+remaining = %d keys (sum %d), inserted = %d (sum %d)",
				r, got.count, got.sum, want.count, want.sum)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := l.done(rounds, retainedMB(&q))
	nativeLayer(res, total)
	return res, nil
}

// pqClient inserts each key and extracts the minimum after it, returning
// the count and sum of the extracted keys. An ExtractMin that finds the
// queue empty is a failure: the prefill keeps it non-empty.
func pqClient(h *native.PQueueHandle, keys []uint64, cl *client, c *config) (count, sum uint64) {
	corrupt := c.injectFault && cl.id == 0
	for j, k := range keys {
		// Both operations of every sampleEvery-th pair are timed.
		i := 2 * j
		sampled, spanned := cl.sampled(j), j%spanEvery == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		h.Insert(k)
		if sampled {
			cl.timed(i, spanned, true, "native.PQueueHandle.Insert", "internal/native", t0)
			t0 = time.Now()
		}
		m, ok := h.ExtractMin()
		if sampled {
			cl.timed(i+1, spanned, true, "native.PQueueHandle.ExtractMin", "internal/native", t0)
		}
		if corrupt {
			m++
			corrupt = false
		}
		if !ok {
			cl.fails++
			continue
		}
		count++
		sum += m
	}
	return count, sum
}
