package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"hcf/internal/workload"
	"hcf/native"
)

// mapPutBit marks a Put in a map-read90 stream entry; the low bits are
// the key.
const mapPutBit = 1 << 31

// mapValue is the value every Put stores under k, so any Get result can
// be checked. It fits the 63 bits a native result word carries.
func mapValue(k uint64) uint64 { return splitmix64(k) >> 1 }

// mapPrefilled reports whether k is present before the run: a seeded
// half of the key range.
func mapPrefilled(seed, k uint64) bool { return splitmix64(seed^0x5EED^k<<1)&1 == 0 }

// mapInputs is map-read90's generated input.
type mapInputs struct {
	prefill []uint64
	streams [numClients][]uint32
	// wantLen is the number of distinct keys once the streams have run.
	wantLen int
}

func genMap(seed uint64, sz sizes) (*mapInputs, error) {
	keys := uint64(sz.mapKeys)
	zipf, err := workload.NewZipf(keys, 0.9)
	if err != nil {
		return nil, err
	}
	in := &mapInputs{}
	present := make([]bool, keys)
	for k := uint64(0); k < keys; k++ {
		if mapPrefilled(seed, k) {
			present[k] = true
			in.prefill = append(in.prefill, k)
		}
	}
	in.wantLen = len(in.prefill)
	r := rand.New(rand.NewPCG(seed, 0x3A9))
	for c := range in.streams {
		st := make([]uint32, sz.mapOps/numClients)
		for i := range st {
			k := zipf.Next(r)
			if r.IntN(10) == 0 {
				st[i] = uint32(k) | mapPutBit
				if !present[k] {
					present[k] = true
					in.wantLen++
				}
			} else {
				st[i] = uint32(k)
			}
		}
		in.streams[c] = st
	}
	return in, nil
}

// runMap is map-read90: native.Map, two clients, 90% Get / 10% Put over a
// Zipf(0.9) key range half present at start, with a table several times
// the size of a 4 MiB L2.
func runMap(c *config) (*result, error) {
	sz := c.sizes
	in, err := genMap(c.seed, sz)
	if err != nil {
		return nil, err
	}
	l := newClosedLoop(c, sz.mapOps)
	var total native.Metrics
	var m *native.Map
	rounds, err := roundLoop(c.seconds, l.minRounds(), func(r int) error {
		m = nil
		runtime.GC()
		log := l.roundLog(r)
		t0 := time.Now()
		var err error
		m, err = native.NewMap(2 * sz.mapKeys)
		if err != nil {
			return err
		}
		h := m.Handle()
		for _, k := range in.prefill {
			h.Put(k, mapValue(k))
		}
		h.Release()
		hs := [numClients]*native.MapHandle{m.Handle(), m.Handle()}
		l.s.add("setup_s", time.Since(t0).Seconds())
		if log != nil {
			log.record(spanID(r, -1, 1), 0, "setup", "perfbench", 0, t0)
		}
		if c.trace {
			n := min(sz.mapSolo, len(in.streams[0]))
			solo := newClients(r, n, sampleEvery, nil)[0]
			wall := runClients([]*client{solo}, func(cl *client) { mapClient(hs[0], in.streams[0][:n], cl, c) })
			l.measure("solo_ns_per_op", float64(wall.Nanoseconds())/float64(n))
			l.res.failed += solo.fails
		}
		before := m.Framework().Metrics()
		cls := newClients(r, sz.mapOps/numClients, sampleEvery, log)
		wall := runClients(cls, func(cl *client) { mapClient(hs[cl.id], in.streams[cl.id], cl, c) })
		if l.measured() {
			d := subMetrics(m.Framework().Metrics(), before)
			total.Merge(&d)
		}
		l.finish(cls, wall, "read")
		for _, h := range hs {
			h.Release()
		}
		if m.Len() != in.wantLen {
			l.res.fail("round %d: map holds %d keys, want %d", r, m.Len(), in.wantLen)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := l.done(rounds, retainedMB(&m))
	nativeLayer(res, total)
	res.note("table_slots", float64(2*sz.mapKeys), "count", "16 B per slot")
	return res, nil
}

// mapClient runs one client's stream and checks every result: a Get
// returns mapValue(k) or, only for a key absent at start, nothing; a Put
// that replaced a value replaced mapValue(k).
func mapClient(h *native.MapHandle, st []uint32, cl *client, c *config) {
	corrupt := c.injectFault && cl.id == 0
	for i, e := range st {
		k := uint64(e &^ mapPutBit)
		var t0 time.Time
		sampled := cl.sampled(i)
		if sampled {
			t0 = time.Now()
		}
		if e&mapPutBit != 0 {
			prev, replaced := h.Put(k, mapValue(k))
			if sampled {
				cl.timed(i, i%spanEvery == 0, true, "native.MapHandle.Put", "internal/native", t0)
			}
			if replaced && prev != mapValue(k) {
				cl.fails++
			}
			continue
		}
		v, ok := h.Get(k)
		if sampled {
			cl.timed(i, i%spanEvery == 0, false, "native.MapHandle.Get", "internal/native", t0)
		}
		if corrupt && ok {
			v++
			corrupt = false
		}
		if ok && v != mapValue(k) || !ok && mapPrefilled(c.seed, k) {
			cl.fails++
		}
	}
}
