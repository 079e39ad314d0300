package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hcf/internal/kvstore"
	"hcf/internal/workload"
)

const (
	kvValueLen = 128
	kvPutBit   = 1 << 31
)

// kvConfig is the store configuration: defaults (4 shards, group commit)
// except that the commit skips its fsync. The benchmark may write only
// inside its own directory, which sits on the host's shared disk, where
// fsync latency moved by tens of percent between identical runs (see
// README.md); the workload measures the group-commit machinery, not the
// device.
var kvConfig = kvstore.Config{DisableSync: true}

const kvFlushPolicy = "group commit: one WriteAt per batch, fsync skipped (DisableSync)"

// kvTag identifies one write: the writer (0 = prefill, 1.. = client) and
// the operation's index in that writer's stream.
func kvTag(writer, i int) uint64 { return uint64(writer)<<40 | uint64(i) }

// kvFill writes the value that the write tagged tag stores under k: the
// key, the tag, and filler derived from both, so a Get can check that it
// read a whole value written for its key.
func kvFill(v []byte, k, tag uint64) {
	binary.LittleEndian.PutUint64(v[0:], k)
	binary.LittleEndian.PutUint64(v[8:], tag)
	x := k ^ tag<<7
	for i := 16; i < len(v); i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
}

// kvTagOf returns the tag of a value read under k, or ok=false when the
// value is not one the benchmark wrote for k.
func kvTagOf(v []byte, k uint64) (tag uint64, ok bool) {
	if len(v) != kvValueLen || binary.LittleEndian.Uint64(v) != k {
		return 0, false
	}
	tag = binary.LittleEndian.Uint64(v[8:])
	var want [kvValueLen]byte
	kvFill(want[:], k, tag)
	return tag, bytes.Equal(v, want[:])
}

// kvInputs is kv-mixed's generated input.
type kvInputs struct {
	prefill []byte // kvValueLen bytes per key
	streams [numClients][]uint32
	// vals holds each client's put values in stream order.
	vals [numClients][]byte
	// lastPut[c][k] is 1 + the index of client c's last put of k, or 0.
	lastPut [numClients][]uint32
}

func genKV(seed uint64, sz sizes) (*kvInputs, error) {
	keys := uint64(sz.kvKeys)
	zipf, err := workload.NewZipf(keys, 0.9)
	if err != nil {
		return nil, err
	}
	in := &kvInputs{prefill: make([]byte, keys*kvValueLen)}
	for k := uint64(0); k < keys; k++ {
		kvFill(in.prefill[k*kvValueLen:(k+1)*kvValueLen], k, kvTag(0, int(k)))
	}
	r := rand.New(rand.NewPCG(seed, 0x6B7))
	for c := range in.streams {
		st := make([]uint32, sz.kvOps/numClients)
		in.lastPut[c] = make([]uint32, keys)
		for i := range st {
			k := zipf.Next(r)
			if r.IntN(2) == 0 {
				st[i] = uint32(k)
				continue
			}
			st[i] = uint32(k) | kvPutBit
			v := make([]byte, kvValueLen)
			kvFill(v, k, kvTag(c+1, i))
			in.vals[c] = append(in.vals[c], v...)
			in.lastPut[c][k] = uint32(i + 1)
		}
		in.streams[c] = st
	}
	return in, nil
}

// runKV is kv-mixed: kvstore with four shards, a 64K keyspace prefilled
// with 128 B values, closed and reopened (a recovery replay), then two
// clients running 50% Get / 50% Put over Zipf(0.9).
func runKV(c *config) (*result, error) {
	sz := c.sizes
	in, err := genKV(c.seed, sz)
	if err != nil {
		return nil, err
	}
	// Each round writes a fresh store under its own directory; all of
	// them are removed after the run. Deleting a round's logs while the
	// next round runs would put the filesystem's freeing (and, with
	// online discard, the device's) into the measurement.
	base := filepath.Join(c.dir, fmt.Sprintf("kv-%d", os.Getpid()))
	defer os.RemoveAll(base)
	puts := 0
	for _, st := range in.streams {
		for _, e := range st {
			if e&kvPutBit != 0 {
				puts++
			}
		}
	}
	l := newClosedLoop(c, sz.kvOps)
	l.res.flushPolicy = kvFlushPolicy
	var layer struct {
		flushes, appended uint64
		wallS             float64
		p50, p99          []float64
	}
	var st *kvstore.Store
	rounds, err := roundLoop(c.seconds, l.minRounds(), func(r int) error {
		st = nil
		runtime.GC()
		dir := filepath.Join(base, fmt.Sprintf("round-%d", r))
		log := l.roundLog(r)
		t0 := time.Now()
		s, err := kvstore.Open(dir, kvConfig)
		if err != nil {
			return err
		}
		h := s.MustHandle()
		for k := 0; k < sz.kvKeys; k++ {
			if _, err := h.Put(uint64(k), in.prefill[k*kvValueLen:(k+1)*kvValueLen]); err != nil {
				s.Close()
				return err
			}
		}
		h.Release()
		prefill := time.Since(t0)
		if err := s.Close(); err != nil {
			return err
		}
		t1 := time.Now()
		st, err = kvstore.Open(dir, kvConfig)
		if err != nil {
			return err
		}
		replay := time.Since(t1)
		hs := [numClients]*kvstore.Handle{st.MustHandle(), st.MustHandle()}
		// The Close between prefill and reopen flushes the prefill to the
		// device; its time is left out for the reason kvConfig gives.
		l.s.add("setup_s", (prefill + time.Since(t1)).Seconds())
		l.s.add("recover_s", replay.Seconds())
		if log != nil {
			id := spanID(r, -1, 1)
			log.record(id, 0, "setup", "perfbench", 0, t0)
			log.spans = append(log.spans, span{id + 1, id, "kvstore.Open (recovery)", "internal/kvstore", 0, log.at(t1), log.at(t1.Add(replay))})
		}
		if c.trace {
			n := min(sz.kvSolo, len(in.streams[0]))
			solo := newClients(r, n, 1, nil)[0]
			wall := runClients([]*client{solo}, func(cl *client) { kvClient(hs[0], in, in.streams[0][:n], cl, c) })
			l.measure("solo_ns_per_op", float64(wall.Nanoseconds())/float64(n))
			l.res.failed += solo.fails
		}
		before := st.Stats()
		cls := newClients(r, sz.kvOps/numClients, 1, log)
		wall := runClients(cls, func(cl *client) { kvClient(hs[cl.id], in, in.streams[cl.id], cl, c) })
		after := st.Stats()
		if l.measured() {
			layer.flushes += after.Flushes - before.Flushes
			layer.appended += after.AppendedBytes - before.AppendedBytes
			layer.wallS += wall.Seconds()
			fl := after.FlushNanos.Sub(&before.FlushNanos)
			layer.p50 = append(layer.p50, float64(fl.Quantile(0.50))/1e3)
			layer.p99 = append(layer.p99, float64(fl.Quantile(0.99))/1e3)
			var logBytes int64
			for _, sh := range after.Shards {
				logBytes += sh.LogBytes
			}
			l.s.add("space_amp", float64(logBytes)/float64(st.Len()*(8+kvValueLen)))
		}
		l.finish(cls, wall, "write")
		for _, h := range hs {
			h.Release()
		}
		kvVerify(l.res, r, st, dir, in)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := l.done(rounds, retainedMB(&st))
	res.dataFS = fsType(c.dir)
	res.metrics["kv.writes_per_flush"] = ratio(uint64(puts)*uint64(len(layer.p50)), layer.flushes)
	res.metrics["kv.flushes_per_s"] = float64(layer.flushes) / layer.wallS
	res.metrics["kv.flush_p50_us"] = median(layer.p50)
	res.metrics["kv.flush_p99_us"] = median(layer.p99)
	res.metrics["kv.appended_bytes_per_put"] = ratio(layer.appended, uint64(puts)*uint64(len(layer.p50)))
	res.metrics["kv.recover_s"] = l.s.med("recover_s")
	res.note("space_amp", l.s.med("space_amp"), "ratio", "log bytes / live user bytes (8 B key + 128 B value)")
	return res, nil
}

// kvClient runs one client's stream (a prefix of it in the solo phase)
// and checks every result: a Put always replaces (every key is
// prefilled), and a Get returns a whole value written for its key.
func kvClient(h *kvstore.Handle, in *kvInputs, ops []uint32, cl *client, c *config) {
	corrupt := c.injectFault && cl.id == 0
	vals := in.vals[cl.id]
	for i, e := range ops {
		k := uint64(e &^ kvPutBit)
		sampled := cl.sampled(i)
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		if e&kvPutBit != 0 {
			replaced, err := h.Put(k, vals[:kvValueLen])
			if sampled {
				cl.timed(i, i%spanEvery == 0, true, "kvstore.Handle.Put", "internal/kvstore", t0)
			}
			vals = vals[kvValueLen:]
			if err != nil || !replaced {
				cl.fails++
			}
			continue
		}
		v, ok, err := h.Get(k)
		if sampled {
			cl.timed(i, i%spanEvery == 0, false, "kvstore.Handle.Get", "internal/kvstore", t0)
		}
		if corrupt && ok {
			v = append([]byte(nil), v...)
			v[kvValueLen-1]++
			corrupt = false
		}
		if _, valid := kvTagOf(v, k); err != nil || !ok || !valid {
			cl.fails++
		}
	}
}

// kvVerify closes and reopens the store after a round: the recovered
// index must be bit-identical to the one before the close, and every key
// must read back the last value one of the clients wrote to it (or its
// prefill value if none did). It closes the store.
func kvVerify(res *result, r int, st *kvstore.Store, dir string, in *kvInputs) {
	dump := st.IndexDump()
	if err := st.Close(); err != nil {
		res.fail("round %d: close: %v", r, err)
		return
	}
	re, err := kvstore.Open(dir, kvConfig)
	if err != nil {
		res.fail("round %d: reopen: %v", r, err)
		return
	}
	defer re.Close()
	if !bytes.Equal(re.IndexDump(), dump) {
		res.fail("round %d: recovered index differs from the index before close", r)
	}
	h := re.MustHandle()
	defer h.Release()
	bad := 0
	for k := range in.lastPut[0] {
		v, ok, err := h.Get(uint64(k))
		tag, valid := kvTagOf(v, uint64(k))
		if err != nil || !ok || !valid {
			bad++
			continue
		}
		written, match := false, false
		for c := range in.lastPut {
			if i := in.lastPut[c][k]; i > 0 {
				written = true
				match = match || tag == kvTag(c+1, int(i-1))
			}
		}
		if !written {
			match = tag == kvTag(0, k)
		}
		if !match {
			bad++
		}
	}
	if bad > 0 {
		res.fail("round %d: %d keys did not read back their last written value after reopen", r, bad)
	}
}
