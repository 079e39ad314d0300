//go:build !unix

package kvstore

import (
	"fmt"
	"os"
)

// logView reads a shard log with ReadAt and appends to it with WriteAt
// where there is no mmap: each window is a fresh heap copy, so a get
// costs two reads.
type logView struct{ f *os.File }

func newLogView(f *os.File) *logView { return &logView{f: f} }

func (v *logView) grow(int64) error { return nil }

func (v *logView) bytes(off, n int64) ([]byte, error) {
	b := make([]byte, n)
	if _, err := v.f.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("kvstore: read log at %d: %w", off, err)
	}
	return b, nil
}

func (v *logView) append(off int64, recs [][]byte) error {
	for _, r := range recs {
		if _, err := v.f.WriteAt(r, off); err != nil {
			return fmt.Errorf("kvstore: write log at %d: %w", off, err)
		}
		off += int64(len(r))
	}
	return nil
}

func (v *logView) close() error { return nil }
