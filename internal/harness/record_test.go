package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRecordsRoundTripByteForByte decodes every checked-in record with
// the shared codec and re-encodes it: the bytes must not change. Each
// record also passes its own check and, where it has one, its baseline
// gate against itself.
func TestRecordsRoundTripByteForByte(t *testing.T) {
	for _, tc := range []struct {
		path string
		rec  Record
	}{
		{"../../bench/KV_sweep.jsonl", &KVReport{}},
		{"../../bench/OPENLOOP_sweep.jsonl", &OpenLoopReport{}},
		{"../../bench/ELASTIC_sweep.jsonl", &ElasticReport{}},
		{"../../bench/BENCH_native.json", &NativeReport{}},
		{"../../bench/AUTOTUNE_sweep.jsonl", &AutotuneReport{}},
	} {
		data, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.rec.Decode(data); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		out, err := tc.rec.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("%s does not re-render byte for byte", tc.path)
		}
		if err := tc.rec.Check(); err != nil {
			t.Errorf("%s fails its own check: %v", tc.path, err)
		}
		if g, ok := tc.rec.(GatedRecord); ok {
			if _, err := CompareRecords(g, g); err != nil {
				t.Errorf("%s fails its gate against itself: %v", tc.path, err)
			}
		}
	}
}

// TestRecordChecks drives each record's fail-closed check on synthetic
// reports: clean passes, a broken run fails without any baseline.
func TestRecordChecks(t *testing.T) {
	ol := &OpenLoopReport{Points: []OpenLoopPoint{{Engine: "HCF", Rate: 1000, Threads: 4}}}
	if err := ol.Check(); err != nil {
		t.Fatalf("clean open-loop sweep failed its check: %v", err)
	}
	ol.Points[0].InvariantViolation = "lost key 7"
	if err := ol.Check(); err == nil || !strings.Contains(err.Error(), "lost key 7") {
		t.Errorf("open-loop invariant violation passed: %v", err)
	}
	if !strings.Contains(ol.Text(), "lost key 7") {
		t.Error("open-loop table hides the invariant violation")
	}

	kv := &KVReport{Points: []KVPoint{{Users: 10, GetPct: 50, RecoveryOK: true}}}
	if err := kv.Check(); err != nil {
		t.Fatalf("clean kv sweep failed its check: %v", err)
	}
	kv.Points[0].RecoveryOK = false
	if err := kv.Check(); err == nil || !strings.Contains(err.Error(), "recovery") {
		t.Errorf("kv recovery mismatch passed: %v", err)
	}

	nat := syntheticReport(1)
	if err := nat.Check(); err != nil {
		t.Fatalf("clean native sweep failed its check: %v", err)
	}
	nat.Points[2].Ops = 0
	if err := nat.Check(); err == nil {
		t.Error("native cell with zero ops passed")
	}

	hb := &HostBenchReport{Kind: HostBenchKind, Figure: "2c"}
	if err := hb.Check(); err != nil {
		t.Fatalf("clean host bench failed its check: %v", err)
	}
	hb.InvariantViolations = []string{"hashtable HCF t=4: lost key"}
	if err := hb.Check(); err == nil {
		t.Error("host bench with an invariant violation passed")
	}
}

// TestNormalizedGatePrintsBoundedRatio pins that a normalized gate's
// failure names the ratio the bound applies to, raw/norm, with the raw
// ratio and the norm beside it: a point 0.16x the baseline's p99 among
// points at 0.05x is 3.20x worse once normalized, over the 2x bound.
func TestNormalizedGatePrintsBoundedRatio(t *testing.T) {
	rec := func(p99s ...uint64) *KVReport {
		r := &KVReport{}
		for i, p := range p99s {
			pt := KVPoint{Users: 10 * uint64(i+1), GetPct: 50}
			pt.Sojourn.P99, pt.Sojourn.Count = p, kvGate.MinSamples
			r.Points = append(r.Points, pt)
		}
		return r
	}
	_, err := CompareRecords(rec(16, 5, 5), rec(100, 100, 100))
	want := "users=10 get=50%: 3.20x worse than baseline (raw 0.16x / norm 0.05x)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("gate error %v, want a line %q", err, want)
	}
}

// TestHostBenchBaseline pins the -bench gate: failing below 0.75x the
// baseline's host throughput for the same figure.
func TestHostBenchBaseline(t *testing.T) {
	rec := func(fig string, v float64) *HostBenchReport {
		return &HostBenchReport{Kind: HostBenchKind, Figure: fig, SimMcyclesPerHostSec: v}
	}
	if _, err := CompareRecords(rec("2c", 0.8), rec("2c", 1)); err != nil {
		t.Fatalf("0.8x passed the old gate, must pass now: %v", err)
	}
	if _, err := CompareRecords(rec("2c", 0.7), rec("2c", 1)); err == nil {
		t.Fatal("0.7x regression passed")
	}
	if _, err := CompareRecords(rec("2c", 0), rec("2c", 1)); err == nil {
		t.Fatal("zero throughput passed")
	}
	if _, err := CompareRecords(rec("stack", 1), rec("2c", 1)); err == nil {
		t.Fatal("records of different figures compared")
	}
	data, err := rec("2c", 3).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(HostBenchReport).Decode(data); err != nil {
		t.Fatal(err)
	}
	if err := new(HostBenchReport).Decode([]byte(`{"kind":"other"}`)); err == nil {
		t.Fatal("wrong kind accepted")
	}
}
