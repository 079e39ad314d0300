package harness

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// TestRunClients: every client's error comes back, the wall time covers
// the slowest client, and the release time precedes every client's work.
func TestRunClients(t *testing.T) {
	const n = 4
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("client %d", i)
	}
	began := make([]time.Time, n)
	before := time.Now()
	wall, err := runClients(n, func(i int, start time.Time) error {
		began[i] = time.Now()
		if began[i].Before(start) {
			return fmt.Errorf("client %d began at %v, before the release at %v", i, began[i], start)
		}
		time.Sleep(time.Duration(i+1) * 5 * time.Millisecond)
		return errs[i]
	})
	for i, want := range errs {
		if !errors.Is(err, want) {
			t.Fatalf("client %d's error missing from %v", i, err)
		}
	}
	if slowest := time.Duration(n) * 5 * time.Millisecond; wall < slowest {
		t.Fatalf("wall %v shorter than the slowest client's %v", wall, slowest)
	}
	if total := time.Since(before); wall > total {
		t.Fatalf("wall %v longer than the whole call's %v", wall, total)
	}
	if wall, err := runClients(n, func(int, time.Time) error { return nil }); err != nil || wall <= 0 {
		t.Fatalf("clean run: wall %v, err %v", wall, err)
	}
}

func TestRoundLoopRunsMinRounds(t *testing.T) {
	var ran []int
	roundLoop(0, 3, func(r int) { ran = append(ran, r) })
	if !slices.Equal(ran, []int{0, 1, 2}) {
		t.Fatalf("zero budget ran rounds %v, want [0 1 2]", ran)
	}
}

// TestQuartiles pins the one quartile helper the native figure's median
// and bench/ab.go share: interpolated between order statistics, the
// input left in its order, NaN for no values.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2}, [3]float64{1.5, 2, 2.5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.75, 2.5, 3.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		in := append([]float64(nil), c.in...)
		if got := Quartiles(c.in); got != c.want {
			t.Fatalf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
		if !slices.Equal(in, c.in) {
			t.Fatalf("Quartiles reordered its input: %v", c.in)
		}
	}
	for _, q := range Quartiles(nil) {
		if !math.IsNaN(q) {
			t.Fatalf("Quartiles(nil) = %v, want NaN", Quartiles(nil))
		}
	}
}

// TestParallelismRegimes runs the parallelism probe against a fake
// clock for a host with one CPU and for one with two: each loop
// iteration costs 10 ns of the clock, and goroutines beyond the CPU
// count queue behind the others. With GOMAXPROCS 2 the two hosts read
// 1.0 and 2.0, and those readings classify into different regimes.
func TestParallelismRegimes(t *testing.T) {
	var readings []float64
	for _, cpus := range []int{1, 2} {
		var clock time.Duration
		var sized []int
		run := func(g, n int) {
			rounds := (g + cpus - 1) / cpus
			clock += time.Duration(rounds*n) * 10 * time.Nanosecond
			if g == 1 {
				sized = append(sized, n)
			}
		}
		p := parallelism(2, func() time.Duration { return clock }, run)
		if last := sized[len(sized)-1]; time.Duration(last)*10 < probeTime || time.Duration(last)*5 >= probeTime {
			t.Errorf("%d CPUs: the loop was sized to %d iterations, not the first doubling past %v", cpus, last, probeTime)
		}
		if p != float64(cpus) {
			t.Errorf("%d CPUs: reading %v, want %d", cpus, p, cpus)
		}
		readings = append(readings, p)
	}
	if Regime(readings[0], 2) == Regime(readings[1], 2) {
		t.Fatalf("readings %v classify into one regime", readings)
	}
	for _, c := range []struct {
		p     float64
		procs int
		want  int
	}{{0.3, 2, 1}, {0.83, 2, 1}, {1.32, 2, 1}, {1.8, 2, 2}, {2.52, 2, 2}, {2.52, 4, 3}, {1.9, 1, 1}} {
		if got := Regime(c.p, c.procs); got != c.want {
			t.Errorf("Regime(%v, %d) = %d, want %d", c.p, c.procs, got, c.want)
		}
	}
	if p := EffectiveParallelism(); !(p > 0) || math.IsInf(p, 0) {
		t.Fatalf("EffectiveParallelism() = %v on this host", p)
	}
}
