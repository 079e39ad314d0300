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

func (v *logView) append(buf []byte, off int64) error {
	if _, err := v.f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("kvstore: write log at %d: %w", off, err)
	}
	return nil
}

func (v *logView) close() error { return nil }
