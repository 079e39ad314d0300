package kvstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// firstMapping is the length of a shard log's first mapping on unix;
// each remap doubles it.
const firstMapping = 1 << 20

// TestMappingBoundaries reads records that end one byte inside, exactly
// at and one byte past the first mapping's end, then after a 1 MiB value
// that takes two more remaps: each right after its put, while it is the
// log's last record, again once later records follow it, and again
// after a reopen whose replay maps the log at that size.
func TestMappingBoundaries(t *testing.T) {
	for _, d := range []int{-1, 0, 1} {
		dir := t.TempDir()
		cfg := Config{Shards: 1, Capacity: 1 << 10, MaxValue: 1 << 21, DisableSync: true}
		s, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := s.MustHandle()
		// Key 0's record ends at firstMapping+d; then a small record, an
		// empty value and a 1 MiB value.
		lens := []int{firstMapping + d - int(recordLen(0)), 1, 0, 1 << 20}
		vals := make([][]byte, len(lens))
		for i, n := range lens {
			vals[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
			if _, err := h.Put(uint64(i), vals[i]); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := h.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, vals[i]) {
				t.Fatalf("end %+d: %d-byte value as the last record: got %d bytes, %v, %v", d, n, len(v), ok, err)
			}
		}
		check := func(what string, h *Handle) {
			t.Helper()
			for i, n := range lens {
				if v, ok, err := h.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, vals[i]) {
					t.Fatalf("end %+d, %s: %d-byte value: got %d bytes, %v, %v", d, what, n, len(v), ok, err)
				}
			}
		}
		check("later records", h)
		h.Release()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h = s.MustHandle()
		check("reopened", h)
		h.Release()
		s.Close()
	}
}

// TestReadRecordCorruptLength: a record whose length field claims more
// bytes than the log holds is an error, found before the claimed length
// is allocated; so is a read at the log end.
func TestReadRecordCorruptLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	log := appendRecord(nil, kindPut, 7, []byte("value"))
	log = appendRecord(log, kindPut, 8, []byte("last"))
	binary.LittleEndian.PutUint32(log[9:13], 0xFFFFFFF0)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v := newLogView(f)
	if err := v.grow(int64(len(log))); err != nil {
		t.Fatal(err)
	}
	defer v.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = v.value(0, int64(len(log)), 7)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("record with a 4 GiB length read without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading the corrupt record allocated %d bytes", grew)
	}
	if _, err := v.value(int64(len(log)), int64(len(log)), 8); err == nil {
		t.Error("read at the log end succeeded")
	}
}

// TestAppendFault: an append whose copy faults comes back as an error,
// not a crash. The file is cut short under the view after an append has
// extended it, so the next append's page lies past the end of the file.
func TestAppendFault(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("appends copy into the mapping on unix; the fault is tested on Linux")
	}
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "shard.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v := newLogView(f)
	defer v.close()
	rec := appendRecord(nil, kindPut, 7, []byte("value"))
	if err := v.grow(int64(len(rec))); err != nil {
		t.Fatal(err)
	}
	if err := v.append(0, [][]byte{rec}); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	err = v.append(int64(len(rec)), [][]byte{rec})
	if err == nil {
		t.Fatal("append to a page past the end of the file succeeded")
	}
	t.Logf("append past the end of the file: %v", err)
}
