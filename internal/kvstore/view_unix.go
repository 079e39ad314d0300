//go:build unix

package kvstore

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync/atomic"
	"syscall"
)

// minMapping is the length of a shard log's first mapping. Each remap
// doubles the length until it covers the log.
const minMapping = 1 << 20

// logView maps a shard log read-write and MAP_SHARED: a get decodes its
// record straight from the page cache, and a group commit copies its
// records into it, neither with a syscall. The mapping and the file share
// one page cache, so fsync writes back the pages an append dirtied
// (Linux; see the package doc).
//
// The mapping may run past the end of the file (mapping past EOF is
// legal); readers never touch bytes at or past the shard's size, and an
// append first extends the file to the mapping's length.
type logView struct {
	f *os.File
	// fileLen is the file length the last extending append set, 0
	// before the first; the file is at least this long. Replay leaves
	// the file exactly the log, so the first append extends it anyway.
	// Combiner-only.
	fileLen int64
	// cur is the newest mapping. It covers the log's first size bytes
	// before size (and any index offset below it) is published. Nil
	// once the view is closed.
	cur atomic.Pointer[[]byte]
	// maps holds every mapping made, newest last. Old ones stay mapped
	// until close, since a get may still be copying from one; with the
	// doubling they take up about twice the log's length in address space.
	// Combiner-only (and Open/Close).
	maps [][]byte
}

func newLogView(f *os.File) *logView { return &logView{f: f} }

// grow makes the mapping cover the log's first size bytes, mapping the
// file anew at the next doubling of its length. It runs under the
// shard's seqlock (or in Open), before the bytes it covers are written,
// so a failed mmap leaves the log and the index untouched. It never
// changes the file, so replay and gets never extend a log.
func (v *logView) grow(size int64) error {
	n := int64(minMapping)
	if m := v.cur.Load(); m != nil {
		if size <= int64(len(*m)) {
			return nil
		}
		n = int64(len(*m))
	}
	for n < size {
		n *= 2
	}
	if int64(int(n)) != n {
		return fmt.Errorf("kvstore: map log: %d bytes exceed the address space", n)
	}
	m, err := syscall.Mmap(int(v.f.Fd()), 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("kvstore: map log: %w", err)
	}
	v.maps = append(v.maps, m)
	v.cur.Store(&m)
	return nil
}

// bytes returns the log's bytes [off, off+n), which the caller has
// bounded by the shard's size. The slice aliases the mapping: read it
// only with faults recovered (see recoverFault), and copy out what must
// outlive the call.
func (v *logView) bytes(off, n int64) ([]byte, error) {
	m := v.cur.Load()
	if m == nil {
		return nil, errClosed
	}
	return (*m)[off : off+n : off+n], nil
}

// append copies recs into the log back to back from off, which grow has
// made the mapping cover. When the bytes run past the file's length, it
// first extends the file to the mapping's length: a hole, allocated only
// as it is written. A file thus stays longer than the log while the
// store is open; replay reads the zeros past the log as a torn tail. A
// fault on the copy (EIO, or ENOSPC filling the hole) comes back as an
// error.
func (v *logView) append(off int64, recs [][]byte) (err error) {
	m := v.cur.Load()
	end := off
	for _, r := range recs {
		end += int64(len(r))
	}
	if end > v.fileLen {
		if err := v.f.Truncate(int64(len(*m))); err != nil {
			return fmt.Errorf("kvstore: extend log: %w", err)
		}
		v.fileLen = int64(len(*m))
	}
	defer recoverFault(&err)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, r := range recs {
		off += int64(copy((*m)[off:], r))
	}
	return nil
}

// close unmaps every mapping. Callers must be quiescent; a later get
// fails with errClosed.
func (v *logView) close() error {
	v.cur.Store(nil)
	var first error
	for _, m := range v.maps {
		if err := syscall.Munmap(m); err != nil && first == nil {
			first = fmt.Errorf("kvstore: unmap log: %w", err)
		}
	}
	v.maps = nil
	return first
}
