package harness

import (
	"slices"
	"strings"
	"testing"
)

// kvTestOptions is a small, fsync-free sweep that still exercises the
// whole pipeline: arrivals, mixes, sojourn recording, SLO evaluation,
// group-commit stats and the recovery replay check.
func kvTestOptions() KVSweepOptions {
	return KVSweepOptions{
		Workers: 4,
		Shards:  2,
		// High enough that each 60ms point clears kvGate.MinSamples
		// (so the baseline tests exercise the ratio gate, not the
		// small-sample exclusion).
		Users:       []uint64{10000, 20000},
		GetPcts:     []int{90},
		DurationMS:  60,
		Keys:        1 << 10,
		ValueLen:    32,
		Seed:        7,
		DisableSync: true,
	}
}

func TestKVSweepSmoke(t *testing.T) {
	rep, err := RunKVSweep(kvTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Arrivals == 0 || p.Completed != p.Arrivals {
			t.Fatalf("users=%d: arrivals=%d completed=%d", p.Users, p.Arrivals, p.Completed)
		}
		if p.Sojourn.Count != p.Completed || p.Sojourn.P99 == 0 {
			t.Fatalf("users=%d: sojourn stat empty: %+v", p.Users, p.Sojourn)
		}
		if p.Sojourn.P999 < p.Sojourn.P99 || p.Sojourn.P99 < p.Sojourn.P50 {
			t.Fatalf("users=%d: quantiles not monotone: %+v", p.Users, p.Sojourn)
		}
		if p.SLOState == "" || p.SLO == nil || len(p.SLO.Objectives) != 2 {
			t.Fatalf("users=%d: SLO verdicts missing (state %q)", p.Users, p.SLOState)
		}
		for _, o := range p.SLO.Objectives {
			if o.State == "" || o.Total == 0 {
				t.Fatalf("users=%d: objective not evaluated: %+v", p.Users, o)
			}
		}
		if p.Flushes == 0 || p.AppendedBytes == 0 || p.WritesPerFlush < 1 {
			t.Fatalf("users=%d: group-commit stats empty: flushes=%d bytes=%d wpf=%.2f",
				p.Users, p.Flushes, p.AppendedBytes, p.WritesPerFlush)
		}
		if !p.RecoveryOK {
			t.Fatalf("users=%d: recovery replay mismatch", p.Users)
		}
		if len(p.ByClass) != 3 {
			t.Fatalf("users=%d: got %d class rows, want 3", p.Users, len(p.ByClass))
		}
	}
	if !strings.Contains(rep.Text(), "wr/flush") {
		t.Fatal("Text() missing group-commit column")
	}
}

func TestKVJSONLRoundTripAndBaseline(t *testing.T) {
	rep, err := RunKVSweep(kvTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back := &KVReport{}
	if err := back.Decode(data); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(rep.Points) || back.Workers != rep.Workers || back.Seed != rep.Seed {
		t.Fatalf("round trip mismatch: %d points, workers %d", len(back.Points), back.Workers)
	}
	for i := range back.Points {
		if back.Points[i].Sojourn.P99 != rep.Points[i].Sojourn.P99 {
			t.Fatalf("point %d p99 changed across round trip", i)
		}
	}

	// Self-comparison passes at any tolerance.
	n, err := CompareRecords(back, rep)
	if err != nil || n != len(rep.Points) {
		t.Fatalf("self-compare: n=%d err=%v", n, err)
	}
	// A single point pushed far beyond the median ratio fails the gate.
	worse := *back
	worse.Points = append([]KVPoint(nil), back.Points...)
	worse.Points[0].Sojourn.P99 *= 100
	if _, err := CompareRecords(&worse, rep); err == nil {
		t.Fatal("100x p99 regression passed the baseline gate")
	}
	// Below the sample floor the same regression is excluded from the
	// ratio gate: short-window p99s are top-two order statistics.
	tiny := *back
	tiny.Points = append([]KVPoint(nil), back.Points...)
	tiny.Points[0].Sojourn.Count = kvGate.MinSamples - 1
	tiny.Points[0].Sojourn.P99 = back.Points[0].Sojourn.P99 * 100
	if n, err := CompareRecords(&tiny, rep); err != nil || n != len(rep.Points)-1 {
		t.Fatalf("small-sample point not excluded from ratio gate: n=%d err=%v", n, err)
	}
	// A failed recovery check fails the record's own check, with or
	// without a baseline.
	if err := back.Check(); err != nil {
		t.Fatalf("clean sweep failed its check: %v", err)
	}
	broken := *back
	broken.Points = append([]KVPoint(nil), back.Points...)
	broken.Points[1].RecoveryOK = false
	if err := broken.Check(); err == nil ||
		!strings.Contains(err.Error(), "recovery") {
		t.Fatalf("recovery failure not gated: %v", err)
	}
}

// TestKVSweepSeedPinsOps: the seed alone fixes every point's arrivals
// and its get/put/delete counts, however the run is timed.
func TestKVSweepSeedPinsOps(t *testing.T) {
	counts := func() [][]uint64 {
		rep, err := RunKVSweep(kvTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		var out [][]uint64
		for _, p := range rep.Points {
			row := []uint64{p.Arrivals}
			for _, c := range p.ByClass {
				row = append(row, c.Count)
			}
			out = append(out, row)
		}
		return out
	}
	first, second := counts(), counts()
	if !slices.EqualFunc(first, second, slices.Equal[[]uint64]) {
		t.Fatalf("same seed, different ops: arrivals and class counts %v then %v", first, second)
	}
}
