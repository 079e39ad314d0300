package kvstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzKVRecord feeds arbitrary bytes to the log decoder, as one record
// (parseRecord), as a record at every offset of a shard log (the view
// reader that serves Get and replay) and as a whole shard log
// (logView.replay), and checks:
//
//   - none panics, and replay returns no error on a readable file;
//   - the view reader accepts a record at an offset exactly when
//     parseRecord accepts the bytes from that offset on, and decodes it
//     to the same kind, key and value;
//   - a decoded record or replayed log never ends past the input;
//   - every decoded record re-encodes byte for byte through appendRecord,
//     so the replayed prefix is exactly the log's intact records;
//   - replay truncates the file to the returned end, and a second replay
//     of the truncated file finds the same records and changes nothing;
//   - the truncated log followed by a run of zero bytes (what an open
//     store's appends leave past the log, and a crash leaves behind)
//     replays to the same records and end, truncating the zeros.
//
// The seed corpus (testdata/fuzz/FuzzKVRecord) holds valid logs, a torn
// tail, a CRC-flipped record and non-record garbage.
func FuzzKVRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, key, val, n := parseRecord(data); n != 0 {
			if n > int64(len(data)) {
				t.Fatalf("parseRecord consumed %d of %d bytes", n, len(data))
			}
			if re := appendRecord(nil, kind, key, val); !bytes.Equal(re, data[:n]) {
				t.Fatalf("record re-encodes as %x, decoded from %x", re, data[:n])
			}
		}

		path := filepath.Join(t.TempDir(), "shard.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkView(t, path, data)
		end, log := replayFile(t, path)
		if end > int64(len(data)) {
			t.Fatalf("replay ended at %d past the %d-byte log", end, len(data))
		}
		if !bytes.Equal(log, data[:end]) {
			t.Fatalf("replayed records re-encode as %x, want the log prefix %x", log, data[:end])
		}
		if st, err := os.Stat(path); err != nil || st.Size() != end {
			t.Fatalf("log not truncated to %d after replay: %v, %v", end, st.Size(), err)
		}
		end2, log2 := replayFile(t, path)
		if end2 != end || !bytes.Equal(log2, log) {
			t.Fatalf("second replay ended at %d with %d bytes, first at %d with %d", end2, len(log2), end, len(log))
		}

		for _, zeros := range []int{1, 4096} {
			if err := os.WriteFile(path, append(data[:end:end], make([]byte, zeros)...), 0o644); err != nil {
				t.Fatal(err)
			}
			end3, log3 := replayFile(t, path)
			if end3 != end || !bytes.Equal(log3, log) {
				t.Fatalf("with %d zero bytes appended, replay ended at %d with %d bytes, without at %d with %d", zeros, end3, len(log3), end, len(log))
			}
			if st, err := os.Stat(path); err != nil || st.Size() != end {
				t.Fatalf("zero tail not truncated to %d: %v, %v", end, st.Size(), err)
			}
		}
	})
}

// checkView runs the view reader over the log at path, holding data, at
// every offset from 0 to its end, against parseRecord at that offset.
func checkView(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v := newLogView(f)
	if err := v.grow(int64(len(data))); err != nil {
		t.Fatal(err)
	}
	defer v.close()
	for off := range len(data) + 1 {
		kind, key, val, err := v.record(int64(off), int64(len(data)))
		wkind, wkey, wval, n := parseRecord(data[off:])
		if (err == nil) != (n != 0) {
			t.Fatalf("offset %d: view reader error %v, parseRecord consumed %d bytes", off, err, n)
		}
		if err == nil && (kind != wkind || key != wkey || !bytes.Equal(val, wval)) {
			t.Fatalf("offset %d: view reader decoded (%d, %d, %x), parseRecord (%d, %d, %x)", off, kind, key, val, wkind, wkey, wval)
		}
	}
}

// replayFile replays the log at path and returns its end offset together
// with every replayed record re-encoded in order, checking that each
// record's reported offset is where the previous one ended.
func replayFile(t *testing.T, path string) (int64, []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v := newLogView(f)
	defer v.close()
	var log []byte
	end, err := v.replay(func(kind byte, key uint64, off int64, val []byte) error {
		if off != int64(len(log)) {
			t.Fatalf("record replayed at offset %d, previous record ended at %d", off, len(log))
		}
		log = appendRecord(log, kind, key, val)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return end, log
}
