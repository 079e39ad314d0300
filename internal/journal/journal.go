// Package journal is the one append-only decision log shared by the
// feedback loops (the policy autotuner, the shard rebalancer): a single
// writer appends by copy-on-write publication of an immutable slice, so
// any number of readers may snapshot, tail or export the log concurrently
// without locks — it can be scraped while the run it documents is still
// going.
package journal

import (
	"encoding/json"
	"sync/atomic"
)

// Log is a single-writer, lock-free-reader append-only log. The zero
// value is an empty log ready for use; a Log must not be copied after
// first use.
type Log[T any] struct {
	entries atomic.Pointer[[]T]
}

// Append publishes one more entry. Only one goroutine may append (the
// loop that owns the log); readers need no coordination with it.
func (l *Log[T]) Append(e T) {
	cur := l.Entries()
	next := make([]T, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = e
	l.entries.Store(&next)
}

// Entries returns the published entries in append order (nil when empty).
// The slice is shared and must not be modified.
func (l *Log[T]) Entries() []T {
	if p := l.entries.Load(); p != nil {
		return *p
	}
	return nil
}

// Len returns the number of published entries.
func (l *Log[T]) Len() int { return len(l.Entries()) }

// Tail returns the last n published entries (all of them when n exceeds
// the length).
func (l *Log[T]) Tail(n int) []T { return Tail(l.Entries(), n) }

// Tail returns the last n elements of s (all of s when n ≥ len(s), none
// when n ≤ 0).
func Tail[T any](s []T, n int) []T {
	return s[len(s)-min(max(n, 0), len(s)):]
}

// JSON renders the log as an indented JSON array — "[]" when empty — so
// the output is byte-identical across runs that append the same entries.
func (l *Log[T]) JSON() ([]byte, error) {
	es := l.Entries()
	if es == nil {
		es = []T{}
	}
	return json.MarshalIndent(es, "", "  ")
}
