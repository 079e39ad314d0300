package kvstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzKVRecord feeds arbitrary bytes to the log decoder, both as one
// record (parseRecord) and as a whole shard log (replayLog), and checks:
//
//   - neither panics, and replay returns no error on a readable file;
//   - a decoded record or replayed log never ends past the input;
//   - every decoded record re-encodes byte for byte through appendRecord,
//     so the replayed prefix is exactly the log's intact records;
//   - replay truncates the file to the returned end, and a second replay
//     of the truncated file finds the same records and changes nothing.
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
	})
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
	var log []byte
	end, err := replayLog(f, func(kind byte, key uint64, off int64, val []byte) {
		if off != int64(len(log)) {
			t.Fatalf("record replayed at offset %d, previous record ended at %d", off, len(log))
		}
		log = appendRecord(log, kind, key, val)
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return end, log
}
