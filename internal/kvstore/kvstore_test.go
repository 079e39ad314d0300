package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hcf/internal/native"
	"hcf/internal/native/hashtable"
)

// testConfig keeps unit tests fast: fsync off except where a test is
// explicitly about durability machinery.
func testConfig() Config {
	return Config{Shards: 4, Capacity: 1 << 12, DisableSync: true}
}

func TestSequentialAgainstMap(t *testing.T) {
	s, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	defer h.Release()

	model := map[uint64][]byte{}
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 5000; i++ {
		k := rng.Uint64N(300)
		switch rng.IntN(4) {
		case 0, 1:
			v := make([]byte, rng.IntN(64))
			for j := range v {
				v[j] = byte(rng.Uint64())
			}
			replaced, err := h.Put(k, v)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := model[k]; replaced != want {
				t.Fatalf("op %d: Put(%d) replaced=%v, want %v", i, k, replaced, want)
			}
			model[k] = v
		case 2:
			found, err := h.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := model[k]; found != want {
				t.Fatalf("op %d: Delete(%d) found=%v, want %v", i, k, found, want)
			}
			delete(model, k)
		default:
			v, ok, err := h.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := model[k]
			if ok != wantOK || !bytes.Equal(v, want) {
				t.Fatalf("op %d: Get(%d) = (%q,%v), want (%q,%v)", i, k, v, ok, want, wantOK)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
}

func TestEmptyAndLargeValues(t *testing.T) {
	cfg := testConfig()
	cfg.MaxValue = 1 << 10
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	defer h.Release()

	if _, err := h.Put(1, nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := h.Get(1)
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: got (%q,%v,%v)", v, ok, err)
	}
	big := make([]byte, 1<<10)
	if _, err := h.Put(2, big); err != nil {
		t.Fatalf("at-cap value rejected: %v", err)
	}
	if _, err := h.Put(3, make([]byte, 1<<10+1)); err == nil {
		t.Fatal("over-cap value accepted")
	}
}

// TestRecoveryBitIdentical is the crash-recovery acceptance check: after
// arbitrary churn, the reopened store's index dump must be bit-identical
// to the pre-close witness dump, and every surviving value must read
// back intact.
func TestRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.MustHandle()
	rng := rand.New(rand.NewPCG(3, 5))
	model := map[uint64][]byte{}
	for i := 0; i < 3000; i++ {
		k := rng.Uint64N(500)
		if rng.IntN(3) < 2 {
			v := []byte(fmt.Sprintf("v%d-%d", k, i))
			h.Put(k, v)
			model[k] = v
		} else {
			h.Delete(k)
			delete(model, k)
		}
	}
	h.Release()
	witness := s.IndexDump()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.IndexDump(); !bytes.Equal(got, witness) {
		t.Fatalf("recovered index dump differs from witness:\n got %d bytes\nwant %d bytes", len(got), len(witness))
	}
	h2 := s2.MustHandle()
	defer h2.Release()
	for k, want := range model {
		v, ok, err := h2.Get(k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("after recovery Get(%d) = (%q,%v,%v), want (%q,true,nil)", k, v, ok, err, want)
		}
	}
	if s2.Len() != len(model) {
		t.Fatalf("recovered Len = %d, model has %d", s2.Len(), len(model))
	}
}

// TestTornTailTruncated simulates a crash mid-append: garbage and a
// partial record after the last valid record must be truncated on open,
// with everything before the tear intact.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Shards = 1 // single shard so we know which file to corrupt
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.MustHandle()
	for k := uint64(0); k < 50; k++ {
		h.Put(k, []byte(fmt.Sprintf("val-%d", k)))
	}
	h.Release()
	witness := s.IndexDump()
	s.Close()

	path := filepath.Join(dir, "shard-000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append: a valid-looking header claiming a 100-byte value,
	// but only 10 bytes of it made it to disk.
	torn := appendRecord(nil, kindPut, 999, make([]byte, 100))
	f.Write(torn[:recHeaderLen+10])
	f.Close()

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.IndexDump(); !bytes.Equal(got, witness) {
		t.Fatal("index after torn-tail recovery differs from pre-crash witness")
	}
	if _, ok, _ := s2.MustHandle().Get(999); ok {
		t.Fatal("torn record's key visible after recovery")
	}
	// The log must be clean for further appends: write and read back.
	h2 := s2.MustHandle()
	defer h2.Release()
	if _, err := h2.Put(1000, []byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := h2.Get(1000)
	if err != nil || !ok || string(v) != "after-recovery" {
		t.Fatalf("post-recovery append: got (%q,%v,%v)", v, ok, err)
	}
}

// TestCrashCopyRecovers simulates a crash without Close: a copy of an
// open store's shard files, each carrying the zero tail its appends left
// past the log, opens to the open store's index with every file cut back
// to its log, and the copy then serves puts (the first one extends the
// file again) and gets. Closing the copy leaves each file exactly its log.
func TestCrashCopyRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	model := map[uint64][]byte{}
	for k := uint64(0); k < 400; k++ {
		v := []byte(fmt.Sprintf("v%d", k))
		if _, err := h.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for k := uint64(0); k < 400; k += 3 {
		if _, err := h.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}
	h.Release()
	witness := s.IndexDump()
	ends := s.Stats().Shards

	crash := t.TempDir()
	for i, sh := range ends {
		name := fmt.Sprintf("shard-%03d.log", i)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if runtime.GOOS == "linux" && int64(len(data)) <= sh.LogBytes {
			t.Fatalf("shard %d: open store's file holds %d bytes, its log %d: no zero tail", i, len(data), sh.LogBytes)
		}
		if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fileSizes := func(what string, want func(i int) int64) {
		t.Helper()
		for i := range ends {
			st, err := os.Stat(filepath.Join(crash, fmt.Sprintf("shard-%03d.log", i)))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != want(i) {
				t.Fatalf("%s: shard %d file holds %d bytes, want its log end %d", what, i, st.Size(), want(i))
			}
		}
	}

	c, err := Open(crash, cfg)
	if err != nil {
		t.Fatalf("open the crash copy: %v", err)
	}
	if got := c.IndexDump(); !bytes.Equal(got, witness) {
		t.Fatal("crash copy's index differs from the open store's")
	}
	fileSizes("after replay", func(i int) int64 { return ends[i].LogBytes })
	hc := c.MustHandle()
	for k := uint64(1000); k < 1064; k++ {
		v := []byte(fmt.Sprintf("after-crash-%d", k))
		if _, err := hc.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for k := uint64(0); k < 1064; k++ {
		v, ok, err := hc.Get(k)
		if want, live := model[k]; err != nil || ok != live || !bytes.Equal(v, want) {
			t.Fatalf("crash copy Get(%d) = (%q, %v, %v), want (%q, %v, nil)", k, v, ok, err, want, live)
		}
	}
	hc.Release()
	after := c.Stats().Shards
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	fileSizes("after Close", func(i int) int64 { return after[i].LogBytes })
}

// TestConcurrentGroupCommit drives real fsync-backed group commit from
// several goroutines (run under -race in CI). Disjoint key ranges make
// the final state deterministic; the stats must show group commits
// batching multiple writes per flush or at least flushing every write.
func TestConcurrentGroupCommit(t *testing.T) {
	cfg := Config{Shards: 2, Capacity: 1 << 12} // sync enabled
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const goroutines, opsPer = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := s.MustHandle()
			defer h.Release()
			base := uint64(g) << 32
			for i := uint64(0); i < opsPer; i++ {
				k := base + i
				if _, err := h.Put(k, []byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := h.Get(k); err != nil || !ok || len(v) == 0 {
					t.Errorf("Get(%d) = (%q,%v,%v) right after Put", k, v, ok, err)
					return
				}
				if i%4 == 3 {
					h.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()

	h := s.MustHandle()
	defer h.Release()
	live := 0
	for g := 0; g < goroutines; g++ {
		base := uint64(g) << 32
		for i := uint64(0); i < opsPer; i++ {
			want := i%4 != 3
			_, ok, err := h.Get(base + i)
			if err != nil {
				t.Fatal(err)
			}
			if ok != want {
				t.Fatalf("key %d/%d present=%v, want %v", g, i, ok, want)
			}
			if ok {
				live++
			}
		}
	}
	if s.Len() != live {
		t.Fatalf("Len = %d, counted %d live", s.Len(), live)
	}

	st := s.Stats()
	totalWrites := uint64(goroutines*opsPer) + uint64(goroutines*opsPer/4)
	if st.Flushes == 0 || st.Flushes >= totalWrites {
		t.Fatalf("Flushes = %d for %d writes: group commit never batched", st.Flushes, totalWrites)
	}
	// A store that fsyncs measures every batch.
	if st.FlushNanos.Count != st.Flushes {
		t.Fatalf("FlushNanos.Count = %d, want one per flush (%d)", st.FlushNanos.Count, st.Flushes)
	}
	if puts, dels := st.BatchOps[ClassPut].Sum, st.BatchOps[ClassDelete].Sum; puts+dels != totalWrites {
		t.Fatalf("BatchOps sums: %d puts + %d deletes, want %d writes", puts, dels, totalWrites)
	}
	t.Logf("writes=%d flushes=%d (amortization %.2f writes/flush)",
		totalWrites, st.Flushes, float64(totalWrites)/float64(st.Flushes))
}

// TestStatsGauges checks the occupancy gauges the serve endpoint polls.
func TestStatsGauges(t *testing.T) {
	s, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	defer h.Release()
	for k := uint64(0); k < 100; k++ {
		h.Put(k, []byte("x"))
	}
	for k := uint64(0); k < 50; k++ {
		h.Delete(k)
	}
	st := s.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(st.Shards))
	}
	live, logBytes := 0, int64(0)
	for _, sh := range st.Shards {
		live += sh.Live
		logBytes += sh.LogBytes
	}
	if live != 50 || s.Len() != 50 {
		t.Fatalf("live = %d (Len %d), want 50", live, s.Len())
	}
	if logBytes == 0 || st.AppendedBytes != uint64(logBytes) {
		t.Fatalf("log bytes %d vs appended %d", logBytes, st.AppendedBytes)
	}
}

// remapValue fills a value of n bytes for version ver of key k: the key
// and version, then filler derived from both, so a reader can check
// that it got one whole value written for its key.
func remapValue(k, ver uint64, n int) []byte {
	v := make([]byte, n)
	x := k*0x9E3779B97F4A7C15 ^ ver
	for i := range v {
		x = x*6364136223846793005 + 1442695040888963407
		v[i] = byte(x >> 56)
	}
	binary.LittleEndian.PutUint64(v, k)
	binary.LittleEndian.PutUint64(v[8:], ver)
	return v
}

// TestGetsAcrossRemaps runs two getters that check every value they
// read while one writer appends over 8 MiB to a single shard, so the
// log's mapping is replaced at least three times under them (1 → 2 → 4
// → 8 → 16 MiB on unix). A reopen must then rebuild a byte-identical
// index and read every key back.
func TestGetsAcrossRemaps(t *testing.T) {
	const keys, valueLen, logBytes = 256, 4 << 10, 9 << 20
	dir := t.TempDir()
	cfg := Config{Shards: 1, Capacity: 1 << 10, DisableSync: true}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := s.MustHandle()
	for k := uint64(0); k < keys; k++ {
		if _, err := w.Put(k, remapValue(k, 0, valueLen)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := s.MustHandle()
			defer h.Release()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for !stop.Load() {
				k := rng.Uint64N(keys)
				v, ok, err := h.Get(k)
				if err != nil || !ok || len(v) != valueLen {
					t.Errorf("Get(%d) = %d bytes, %v, %v", k, len(v), ok, err)
					return
				}
				if ver := binary.LittleEndian.Uint64(v[8:]); !bytes.Equal(v, remapValue(k, ver, valueLen)) {
					t.Errorf("Get(%d) returned a torn or foreign value (version %d)", k, ver)
					return
				}
			}
		}(g)
	}
	ver := uint64(0)
	for s.Stats().Shards[0].LogBytes < logBytes && !t.Failed() {
		ver++
		for k := uint64(0); k < keys; k++ {
			if _, err := w.Put(k, remapValue(k, ver, valueLen)); err != nil {
				t.Error(err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	w.Release()
	if t.Failed() {
		return
	}
	witness := s.IndexDump()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.IndexDump(); !bytes.Equal(got, witness) {
		t.Fatalf("index after reopen differs from the one before (%d vs %d bytes)", len(got), len(witness))
	}
	h := s.MustHandle()
	defer h.Release()
	for k := uint64(0); k < keys; k++ {
		if v, ok, err := h.Get(k); err != nil || !ok || !bytes.Equal(v, remapValue(k, ver, valueLen)) {
			t.Fatalf("after reopen Get(%d) = %d bytes, %v, %v; want version %d", k, len(v), ok, err, ver)
		}
	}
}

// TestGetAfterTruncate: a shard log cut short under an open store makes
// Get return an error (on unix the read faults on the mapping, and the
// fault is recovered), never a crash or a wrong value.
func TestGetAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{Shards: 1, Capacity: 1 << 10, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	defer h.Release()
	for k := uint64(0); k < 100; k++ {
		if _, err := h.Put(k, bytes.Repeat([]byte{byte(k)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "shard-000.log")
	// Mid-page first: the page stays mapped and the record reads as
	// zeros; then the whole file, so the record's page is gone.
	for _, size := range []int64{recordLen(100)*90 + 5, 0} {
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
		v, ok, err := h.Get(95)
		if err == nil {
			t.Fatalf("Get after truncating the log to %d bytes = %d bytes, %v, nil error", size, len(v), ok)
		}
		t.Logf("truncated to %d bytes: %v", size, err)
	}
}

// TestGetAfterClose: a Get, Put or Delete through a handle that outlived
// its store's Close returns an error, and the writes never reach the
// combiner.
func TestGetAfterClose(t *testing.T) {
	s, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.MustHandle()
	defer h.Release()
	if _, err := h.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := h.Get(1); err == nil {
		t.Fatalf("Get after Close = %q, %v, nil error", v, ok)
	}
	if _, err := h.Put(2, []byte("two")); !errors.Is(err, errClosed) {
		t.Fatalf("Put after Close: %v, want %v", err, errClosed)
	}
	if _, err := h.Delete(1); !errors.Is(err, errClosed) {
		t.Fatalf("Delete after Close: %v, want %v", err, errClosed)
	}
}

// TestReservedKeys: the keys above hashtable.MaxKey, which the index
// would encode as its empty and deleted markers, are refused by Put and
// Delete before any record is written, and Get reports them absent even
// among tombstones. MaxKey itself stores and replays normally.
func TestReservedKeys(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, Capacity: 16, DisableSync: true}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.MustHandle()
	for k := uint64(0); k < 12; k++ {
		if _, err := h.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	logged := s.Stats().AppendedBytes
	for _, k := range []uint64{hashtable.MaxKey + 1, hashtable.MaxKey + 2} {
		if _, err := h.Put(k, []byte("x")); !errors.Is(err, errReservedKey) {
			t.Errorf("Put(%#x): %v, want %v", k, err, errReservedKey)
		}
		if _, err := h.Delete(k); !errors.Is(err, errReservedKey) {
			t.Errorf("Delete(%#x): %v, want %v", k, err, errReservedKey)
		}
		if v, ok, err := h.Get(k); ok || err != nil {
			t.Errorf("Get(%#x) = %q, %v, %v; want absent", k, v, ok, err)
		}
	}
	if got := s.Stats().AppendedBytes; got != logged {
		t.Errorf("refused operations appended %d bytes", got-logged)
	}
	if _, err := h.Put(hashtable.MaxKey, []byte("max")); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h = s.MustHandle()
	defer h.Release()
	if v, ok, err := h.Get(hashtable.MaxKey); !ok || err != nil || string(v) != "max" {
		t.Fatalf("Get(MaxKey) after replay = %q, %v, %v; want \"max\"", v, ok, err)
	}
	if s.Len() != 1 {
		t.Fatalf("replayed %d live keys, want 1", s.Len())
	}
}

// TestNativeMetrics: every put announces and is applied by a combiner,
// so after N puts from two handles the merged shard counters show at
// least N announcements and N combined operations.
func TestNativeMetrics(t *testing.T) {
	s, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const perHandle = 500
	var wg sync.WaitGroup
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.MustHandle()
			defer h.Release()
			for i := uint64(0); i < perHandle; i++ {
				if _, err := h.Put(g<<32|i, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	m := s.NativeMetrics()
	if n := uint64(2 * perHandle); m.Announces < n || m.CombinedOps < n {
		t.Fatalf("after %d puts: %d announces, %d combined ops", n, m.Announces, m.CombinedOps)
	}
}

// TestCommitDelayDefaults: the group-commit delay defaults on only where
// batches share an fsync; an explicit delay is kept and a negative one
// turns it off.
func TestCommitDelayDefaults(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{}, 16},
		{Config{DisableSync: true}, 0},
		{Config{DisableSync: true, CommitDelay: 5}, 5},
		{Config{CommitDelay: -1}, 0},
		{Config{DisableSync: true, CommitDelay: -1}, 0},
	} {
		if got := tc.cfg.normalize().CommitDelay; got != tc.want {
			t.Errorf("%+v: CommitDelay = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

// TestReplayOverCapacity: reopening a shard whose log holds more distinct
// live keys than the index holds fails Open with an error naming the
// shard and the capacity, and leaves the log whole for a larger index.
func TestReplayOverCapacity(t *testing.T) {
	dir := t.TempDir()
	big := Config{Shards: 1, Capacity: 32, DisableSync: true}
	s, err := Open(dir, big)
	if err != nil {
		t.Fatal(err)
	}
	h := s.MustHandle()
	for k := uint64(0); k < 17; k++ {
		if _, err := h.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	h.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	small := big
	small.Capacity = 16
	if s, err := Open(dir, small); err == nil {
		s.Close()
		t.Fatal("Open with 17 live keys at Capacity 16 succeeded")
	} else if msg := err.Error(); !strings.Contains(msg, "shard-000.log") || !strings.Contains(msg, "Capacity 16") {
		t.Fatalf("Open error %q names neither the shard nor the capacity", msg)
	}
	s, err = Open(dir, big)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 17 {
		t.Fatalf("reopened at Capacity 32: Len = %d, want 17", s.Len())
	}
}

// TestStatsContract: a store that fsyncs measures every batch; a no-sync
// store measures its first batch and one in sampleEvery after it. Both
// count flushes exactly, and AppendedBytes is the sum of the record
// lengths this store appended, also after a reopen.
func TestStatsContract(t *testing.T) {
	for _, sync := range []bool{true, false} {
		dir := t.TempDir()
		cfg := Config{Shards: 1, Capacity: 64, DisableSync: !sync}
		var wantBytes uint64
		for open, n := range []int{40, 21} {
			s, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := s.MustHandle()
			var appended uint64
			for i := 0; i < n; i++ {
				val := bytes.Repeat([]byte{'v'}, i)
				if _, err := h.Put(uint64(i), val); err != nil {
					t.Fatal(err)
				}
				appended += uint64(recordLen(len(val)))
				if i%3 == 0 {
					if _, err := h.Delete(uint64(i)); err != nil {
						t.Fatal(err)
					}
					appended += uint64(recordLen(0))
				}
			}
			h.Release()
			wantBytes += appended
			st := s.Stats()
			batches := uint64(n + (n+2)/3) // one per put and per delete: a lone handle
			measured := batches
			if !sync {
				measured = (batches + sampleEvery - 1) / sampleEvery
			}
			if st.Flushes != batches {
				t.Errorf("sync=%v open %d: Flushes = %d, want %d", sync, open, st.Flushes, batches)
			}
			if st.FlushNanos.Count != measured {
				t.Errorf("sync=%v open %d: FlushNanos.Count = %d, want %d of %d batches", sync, open, st.FlushNanos.Count, measured, batches)
			}
			if got := st.BatchOps[ClassPut].Count + st.BatchOps[ClassDelete].Count; got != measured {
				t.Errorf("sync=%v open %d: BatchOps counts %d batches, want %d", sync, open, got, measured)
			}
			if st.AppendedBytes != appended {
				t.Errorf("sync=%v open %d: AppendedBytes = %d, want %d", sync, open, st.AppendedBytes, appended)
			}
			if got := uint64(st.Shards[0].LogBytes); got != wantBytes {
				t.Errorf("sync=%v open %d: LogBytes = %d, want %d", sync, open, got, wantBytes)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIndexFull: a put of a new key into a full index fails with
// ErrFull and writes nothing, while overwrites and deletes go on, and
// the store reopens to the same index.
func TestIndexFull(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, Capacity: 16, DisableSync: true}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.MustHandle()
	for k := uint64(0); k < 16; k++ {
		if _, err := h.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	logged := s.Stats().AppendedBytes
	if _, err := h.Put(16, []byte("v")); !errors.Is(err, ErrFull) {
		t.Fatalf("17th distinct put: %v, want %v", err, ErrFull)
	}
	if got := s.Stats().AppendedBytes; got != logged {
		t.Fatalf("refused put appended %d bytes", got-logged)
	}
	if replaced, err := h.Put(3, []byte("w")); err != nil || !replaced {
		t.Fatalf("overwrite in a full index = %v, %v", replaced, err)
	}
	if _, err := h.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Put(16, []byte("x")); err != nil {
		t.Fatalf("put after a delete freed a slot: %v", err)
	}
	h.Release()
	reopenMatches(t, s, dir, cfg)
}

// TestIndexFullMixedBatch drives one combined batch through runBatch
// directly: puts that fit and puts that overflow, interleaved with a
// delete that frees a slot, an overwrite and a get. Only the refused
// puts get ErrFull; the log holds the other records in slot order, and
// the store reopens to the same index.
func TestIndexFullMixedBatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, Capacity: 16, MaxHandles: 16, DisableSync: true}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.MustHandle()
	for k := uint64(0); k < 15; k++ {
		if _, err := h.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	h.Release()
	sh := s.shards[0]
	base := sh.size.Load()
	type step struct {
		class int
		key   uint64
		want  uint64
	}
	steps := []step{
		{ClassPut, 100, native.PackBool(false)}, // takes the last slot
		{ClassPut, 101, putFull},                // no slot
		{ClassPut, 4, native.PackBool(true)},    // overwrite needs none
		{ClassDelete, 7, native.PackBool(true)}, // frees a slot
		{ClassPut, 102, native.PackBool(false)}, // takes it
		{ClassPut, 103, putFull},                // full again
		{ClassGet, 100, 0},                      // checked below
		{ClassPut, 100, native.PackBool(true)},  // present by now
		{ClassDelete, 103, native.PackBool(false)},
	}
	ops := make([]native.Op, len(steps))
	var want []byte
	for i, st := range steps {
		ops[i] = native.Op{Class: st.class, A: st.key, B: uint64(i)}
		switch st.class {
		case ClassPut:
			sh.staging[i] = appendRecord(nil, kindPut, st.key, []byte{byte(i)})
		case ClassDelete:
			sh.staging[i] = appendRecord(nil, kindDelete, st.key, nil)
		}
		if st.class != ClassGet && st.want != putFull {
			want = append(want, sh.staging[i]...)
		}
	}
	res := make([]uint64, len(ops))
	done := make([]bool, len(ops))
	sh.runBatch(ops, res, done)
	for i, st := range steps {
		if !done[i] {
			t.Fatalf("op %d not done", i)
		}
		if st.class != ClassGet && res[i] != st.want {
			t.Errorf("op %d (class %d key %d) = %d, want %d", i, st.class, st.key, res[i], st.want)
		}
	}
	if _, ok := native.Unpack(res[6]); !ok {
		t.Error("get of a key put earlier in the batch missed it")
	}
	if got := sh.size.Load() - base; got != int64(len(want)) {
		t.Fatalf("batch appended %d bytes, want %d", got, len(want))
	}
	got, err := sh.view.bytes(base, int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("log does not hold the admitted records in slot order")
	}
	if s.Len() != 16 {
		t.Fatalf("Len = %d after the batch, want 16", s.Len())
	}
	reopenMatches(t, s, dir, cfg)
}

// reopenMatches closes s, reopens dir and checks that replay rebuilds
// the index s had.
func reopenMatches(t *testing.T, s *Store, dir string, cfg Config) {
	t.Helper()
	witness := s.IndexDump()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if !bytes.Equal(s.IndexDump(), witness) {
		t.Fatal("reopened index differs from the one before Close")
	}
}

// TestSteadyStateAllocs: without fsync, a put and a delete allocate
// nothing once their handle's staging buffer has grown, and a get
// allocates only the value it returns.
func TestSteadyStateAllocs(t *testing.T) {
	s, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	defer h.Release()
	val := make([]byte, 128)
	for k := uint64(0); k < 128; k++ { // gets read 64..127, never deleted
		if _, err := h.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	k := uint64(0)
	for _, tc := range []struct {
		name string
		want float64
		op   func()
	}{
		{"Put", 0, func() { h.Put(k%64, val) }},
		{"Delete", 0, func() { h.Delete(k % 64) }},
		{"Get", 1, func() { h.Get(k%64 + 64) }},
	} {
		if got := testing.AllocsPerRun(200, func() { tc.op(); k++ }); got != tc.want {
			t.Errorf("%s: %.1f allocations per call, want %.0f", tc.name, got, tc.want)
		}
	}
}
