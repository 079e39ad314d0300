// Log record format and replay for the kvstore write-ahead log.
//
// Each shard owns one append-only file of self-describing records:
//
//	kind(1) | key(8 LE) | vlen(4 LE) | value(vlen) | crc32(4 LE)
//
// kind is kindPut or kindDelete (deletes carry vlen=0). The trailing
// CRC-32 (IEEE) covers kind|key|vlen|value, so replay can detect a torn
// tail — a crash mid-append — and truncate the log back to the last
// complete record instead of refusing to open.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	kindPut    = byte(1)
	kindDelete = byte(2)

	recHeaderLen  = 1 + 8 + 4 // kind + key + vlen
	recTrailerLen = 4         // crc32
)

// appendRecord serializes one record onto buf and returns the extended
// buffer. val must be nil for kindDelete.
func appendRecord(buf []byte, kind byte, key uint64, val []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// recordLen returns the on-disk length of a record with a vlen-byte value.
func recordLen(vlen int) int64 {
	return int64(recHeaderLen + vlen + recTrailerLen)
}

// parseRecord decodes the record at the head of data. It returns
// n == 0 when the bytes are a torn or corrupt tail (incomplete header,
// value running past the buffer, or CRC mismatch) — replay treats that
// as end-of-log.
func parseRecord(data []byte) (kind byte, key uint64, val []byte, n int64) {
	if len(data) < recHeaderLen+recTrailerLen {
		return 0, 0, nil, 0
	}
	kind = data[0]
	if kind != kindPut && kind != kindDelete {
		return 0, 0, nil, 0
	}
	key = binary.LittleEndian.Uint64(data[1:9])
	vlen := int(binary.LittleEndian.Uint32(data[9:13]))
	total := recHeaderLen + vlen + recTrailerLen
	if vlen < 0 || len(data) < total {
		return 0, 0, nil, 0
	}
	want := binary.LittleEndian.Uint32(data[recHeaderLen+vlen:])
	if crc32.ChecksumIEEE(data[:recHeaderLen+vlen]) != want {
		return 0, 0, nil, 0
	}
	return kind, key, data[recHeaderLen : recHeaderLen+vlen], int64(total)
}

// replayLog scans f from the start, calling apply(kind, key, offset,
// value) for every intact record, and returns the offset of the first
// byte past the last intact record. A torn tail is truncated in place so
// subsequent appends extend a clean log.
func replayLog(f *os.File, apply func(kind byte, key uint64, off int64, val []byte)) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil && st.Size() > 0 {
		return 0, fmt.Errorf("kvstore: replay read: %w", err)
	}
	off := int64(0)
	for off < int64(len(data)) {
		kind, key, val, n := parseRecord(data[off:])
		if n == 0 {
			break // torn or corrupt tail
		}
		apply(kind, key, off, val)
		off += n
	}
	if off < st.Size() {
		if err := f.Truncate(off); err != nil {
			return 0, fmt.Errorf("kvstore: truncate torn tail: %w", err)
		}
	}
	return off, nil
}

// readAhead is how many bytes readRecordAt asks for in its first read:
// enough for a whole record with a value of up to readAhead-17 bytes, so
// a typical Get costs one pread. Longer records take a second read.
const readAhead = 512

// readRecordAt reads and validates the record starting at off in a log of
// size bytes, returning its kind, key and a freshly allocated copy of the
// value. head is the caller's read-ahead buffer. The first read may stop
// short at the end of the file; that is fine when the whole record is
// inside it. A header whose length runs past size is rejected before
// anything is allocated for the value.
func readRecordAt(f *os.File, off, size int64, head *[readAhead]byte) (kind byte, key uint64, val []byte, err error) {
	n, err := f.ReadAt(head[:], off)
	if err == io.EOF && n < recHeaderLen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil && err != io.EOF {
		return 0, 0, nil, fmt.Errorf("kvstore: record header at %d: %w", off, err)
	}
	vlen := int64(binary.LittleEndian.Uint32(head[9:13]))
	total := recordLen(0) + vlen
	if off+total > size {
		return 0, 0, nil, fmt.Errorf("kvstore: record at %d claims %d bytes, past the log end at %d", off, total, size)
	}
	var rec []byte
	if total <= int64(n) {
		rec = head[:total]
		val = make([]byte, vlen)
		copy(val, rec[recHeaderLen:])
	} else {
		rec = make([]byte, total)
		if _, err := f.ReadAt(rec, off); err != nil {
			return 0, 0, nil, fmt.Errorf("kvstore: record body at %d: %w", off, err)
		}
		val = rec[recHeaderLen : recHeaderLen+vlen : recHeaderLen+vlen]
	}
	if crc32.ChecksumIEEE(rec[:recHeaderLen+vlen]) != binary.LittleEndian.Uint32(rec[recHeaderLen+vlen:]) {
		return 0, 0, nil, fmt.Errorf("kvstore: CRC mismatch at offset %d", off)
	}
	return rec[0], binary.LittleEndian.Uint64(rec[1:9]), val, nil
}
