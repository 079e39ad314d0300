package kvstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestReadAheadBoundaries reads values whose records end one byte inside,
// exactly at and one byte past the read-ahead, plus a 1 MiB value: each
// right after its put, while it is the log's last record (the first read
// stops short at the end of the file), and again once later records
// follow it.
func TestReadAheadBoundaries(t *testing.T) {
	s, err := Open(t.TempDir(), Config{Shards: 1, Capacity: 1 << 10, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MustHandle()
	defer h.Release()
	lens := []int{0, 1, readAhead - 18, readAhead - 17, readAhead - 16, 1 << 20}
	vals := make([][]byte, len(lens))
	for i, n := range lens {
		vals[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
		if _, err := h.Put(uint64(i), vals[i]); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := h.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("%d-byte value as the last record: got %d bytes, %v, %v", n, len(v), ok, err)
		}
	}
	for i, n := range lens {
		if v, ok, err := h.Get(uint64(i)); err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("%d-byte value: got %d bytes, %v, %v", n, len(v), ok, err)
		}
	}
}

// TestReadRecordCorruptLength: a record whose length field claims more
// bytes than the log holds is an error, found before the claimed length
// is allocated.
func TestReadRecordCorruptLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	log := appendRecord(nil, kindPut, 7, []byte("value"))
	log = appendRecord(log, kindPut, 8, []byte("last"))
	binary.LittleEndian.PutUint32(log[9:13], 0xFFFFFFF0)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var head [readAhead]byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = readRecordAt(f, 0, int64(len(log)), &head)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("record with a 4 GiB length read without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading the corrupt record allocated %d bytes", grew)
	}
	if _, _, _, err := readRecordAt(f, int64(len(log)), int64(len(log)), &head); err == nil {
		t.Error("read at the log end succeeded")
	}
}
