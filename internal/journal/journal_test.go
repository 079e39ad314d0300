package journal

import (
	"slices"
	"sync"
	"testing"
)

func TestEmptyLog(t *testing.T) {
	var l Log[int]
	if l.Len() != 0 || l.Entries() != nil || len(l.Tail(3)) != 0 {
		t.Fatalf("zero Log not empty: len=%d entries=%v", l.Len(), l.Entries())
	}
	out, err := l.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "[]" {
		t.Fatalf("empty JSON = %q, want []", out)
	}
}

func TestAppendTailJSON(t *testing.T) {
	type entry struct {
		Seq  int    `json:"seq"`
		Rule string `json:"rule"`
	}
	var l Log[entry]
	for i, r := range []string{"a", "b", "c"} {
		l.Append(entry{Seq: i, Rule: r})
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{-1, []int{}}, {0, []int{}}, {2, []int{1, 2}}, {3, []int{0, 1, 2}}, {9, []int{0, 1, 2}},
	} {
		var got []int
		for _, e := range l.Tail(tc.n) {
			got = append(got, e.Seq)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("Tail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	out, err := l.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := "[\n  {\n    \"seq\": 0,\n    \"rule\": \"a\"\n  },\n  {\n    \"seq\": 1,\n    \"rule\": \"b\"\n  },\n  {\n    \"seq\": 2,\n    \"rule\": \"c\"\n  }\n]"
	if string(out) != want {
		t.Fatalf("JSON =\n%s\nwant\n%s", out, want)
	}
}

// TestSnapshotsAreStable checks the copy-on-write contract: a slice a
// reader obtained never changes under later appends.
func TestSnapshotsAreStable(t *testing.T) {
	var l Log[int]
	l.Append(1)
	snap := l.Entries()
	l.Append(2)
	if len(snap) != 1 || snap[0] != 1 {
		t.Fatalf("snapshot changed under append: %v", snap)
	}
}

// TestConcurrentReaders appends from one goroutine while others read;
// under -race this checks the single-writer/lock-free-reader discipline,
// and every snapshot must be an in-order prefix.
func TestConcurrentReaders(t *testing.T) {
	const n = 500
	var l Log[int]
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l.Len() < n {
				es := l.Entries()
				for i, v := range es {
					if v != i {
						t.Errorf("entry %d = %d", i, v)
						return
					}
				}
				if tail := l.Tail(2); len(tail) > 2 {
					t.Errorf("Tail(2) returned %d entries", len(tail))
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	wg.Wait()
}
