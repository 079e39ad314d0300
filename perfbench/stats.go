package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankIndex is the index of the nearest-rank q-quantile among n sorted
// values (n > 0).
func rankIndex(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// quantileNS returns the nearest-rank q-quantile of sorted nanosecond
// samples, in microseconds.
func quantileNS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rankIndex(len(sorted), q)]) / 1e3
}

// supportsQuantile reports whether n samples put at least ten beyond the
// q-quantile, the least that makes the quantile worth reporting.
func supportsQuantile(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// roundLoop runs rounds until the measuring time would pass seconds: a
// round starts only if the previous round's duration still fits. At least
// minRounds rounds run.
func roundLoop(seconds float64, minRounds int, fn func(r int) error) (int, error) {
	start := time.Now()
	var last time.Duration
	r := 0
	for ; r < minRounds || (time.Since(start)+last).Seconds() <= seconds; r++ {
		t := time.Now()
		if err := fn(r); err != nil {
			return r, err
		}
		last = time.Since(t)
	}
	return r, nil
}

// retainedMB returns the heap, in MiB, that the structure *keep points
// to retains: the live heap after a forced collection with it, minus the
// live heap after a collection without it. The benchmark's own
// bookkeeping is in both and cancels. It clears *keep.
func retainedMB[T any](keep **T) float64 {
	with := liveHeap()
	*keep = nil
	return float64(with-liveHeap()) / (1 << 20)
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// treeHash identifies the source the benchmark was built from: a SHA-256
// over the Go sources and module files under root, skipping hidden
// directories (build and run output).
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// pct returns 100*a/b, or 0 when b is 0.
func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// splitmix64 is the generator the benchmark derives per-key values from.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
