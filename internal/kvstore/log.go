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
	"errors"
	"fmt"
	"hash/crc32"
	"runtime/debug"
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

// errCorrupt marks a record that fails decoding: a torn or corrupt
// tail to replay, an error to a get.
var errCorrupt = errors.New("corrupt record")

// record is the one record reader, for Get and for replay: it decodes
// the record at off from the log's first size bytes, read through v. It
// accepts exactly what parseRecord accepts on the log's bytes [off,
// size), and rejects a length that runs past size before it reads or
// allocates anything for the value. val aliases v: read it only with
// faults recovered (see recoverFault).
func (v *logView) record(off, size int64) (kind byte, key uint64, val []byte, err error) {
	if off < 0 || off+recordLen(0) > size {
		return 0, 0, nil, fmt.Errorf("kvstore: record at %d: header past the log end at %d: %w", off, size, errCorrupt)
	}
	hdr, err := v.bytes(off, recHeaderLen)
	if err != nil {
		return 0, 0, nil, err
	}
	total := recordLen(0) + int64(binary.LittleEndian.Uint32(hdr[9:13]))
	if off+total > size {
		return 0, 0, nil, fmt.Errorf("kvstore: record at %d claims %d bytes, past the log end at %d: %w", off, total, size, errCorrupt)
	}
	rec, err := v.bytes(off, total)
	if err != nil {
		return 0, 0, nil, err
	}
	kind, key, val, n := parseRecord(rec)
	if n == 0 {
		return 0, 0, nil, fmt.Errorf("kvstore: record at %d: bad kind or CRC: %w", off, errCorrupt)
	}
	return kind, key, val, nil
}

// value returns a fresh copy of the value that key's put record at off
// holds, off and the record bounded by the log's first size bytes.
func (v *logView) value(off, size int64, key uint64) (val []byte, err error) {
	defer recoverFault(&err)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	kind, k, rec, err := v.record(off, size)
	if err != nil {
		return nil, err
	}
	if kind != kindPut || k != key {
		return nil, fmt.Errorf("kvstore: index points at wrong record (key %d, offset %d)", key, off)
	}
	val = make([]byte, len(rec))
	copy(val, rec)
	return val, nil
}

// recoverFault, deferred after debug.SetPanicOnFault(true), turns a memory
// fault on the mapping into an error: a log truncated under the store,
// an I/O error paging the mapping in, or a full disk when an append
// fills a hole raises SIGBUS on the access. Any other panic goes on.
func recoverFault(err *error) {
	if r := recover(); r != nil {
		fault, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("kvstore: log access faulted at %#x: %v", fault.Addr(), r)
	}
}

// replay decodes the log from the start, calling apply(kind, key,
// offset, value) for every intact record, and returns the offset of the
// first byte past the last intact record. A torn tail is truncated in
// place so subsequent appends extend a clean log; so are the zeros an
// open store keeps past its log (see logView.append), which a crash
// leaves behind and a zero kind byte marks as torn. A read error or
// fault fails the replay instead, so it never truncates a log it could
// not read, and so does an error from apply, which replay returns as is.
func (v *logView) replay(apply func(kind byte, key uint64, off int64, val []byte) error) (end int64, err error) {
	st, err := v.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("kvstore: replay: %w", err)
	}
	size := st.Size()
	if err := v.grow(size); err != nil {
		return 0, err
	}
	defer recoverFault(&err)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for end < size {
		kind, key, val, err := v.record(end, size)
		if errors.Is(err, errCorrupt) {
			break // torn or corrupt tail
		}
		if err != nil {
			return 0, fmt.Errorf("kvstore: replay: %w", err)
		}
		if err := apply(kind, key, end, val); err != nil {
			return 0, err
		}
		end += recordLen(len(val))
	}
	if end < size {
		if err := v.f.Truncate(end); err != nil {
			return 0, fmt.Errorf("kvstore: truncate torn tail: %w", err)
		}
	}
	return end, nil
}
