package harness

import (
	"strings"
	"testing"
	"time"
)

// TestRunNativeSweepSmoke runs a tiny sweep end to end: every expected
// cell present, nonzero throughput, JSON round trip, text renderer.
func TestRunNativeSweepSmoke(t *testing.T) {
	rep, err := RunNativeSweep(NativeOptions{
		Goroutines: []int{1, 2},
		ReadPcts:   []int{50},
		Duration:   10 * time.Millisecond,
		Keyspace:   1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 hashtable engines x 2 goroutine counts + 2 pqueue engines x 2.
	if want := 4*2 + 2*2; len(rep.Points) != want {
		t.Fatalf("points = %d, want %d", len(rep.Points), want)
	}
	for _, p := range rep.Points {
		if p.Ops == 0 || p.OpsPerSec <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back NativeReport
	if err := back.Decode(data); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(rep.Points) {
		t.Fatalf("round trip lost points: %d != %d", len(back.Points), len(rep.Points))
	}
	text := rep.Text()
	for _, want := range []string{NativeEngineHCF, NativeEngineMutex, "HCF/Mutex", NativeStructPQ} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, text)
		}
	}
}

func TestParseNativeReportRejectsWrongKind(t *testing.T) {
	if err := new(NativeReport).Decode([]byte(`{"kind":"other","points":[{}]}`)); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if err := new(NativeReport).Decode([]byte(`{"kind":"hcf-native-bench","points":[]}`)); err == nil {
		t.Fatal("empty points accepted")
	}
}

func syntheticReport(scale float64) *NativeReport {
	rep := &NativeReport{Kind: NativeReportKind}
	for _, g := range []int{1, 2, 4} {
		for _, e := range []string{NativeEngineHCF, NativeEngineMutex} {
			rep.Points = append(rep.Points, NativePoint{
				Structure: NativeStructHash, Engine: e, Goroutines: g, ReadPct: 50,
				Ops: 1000, OpsPerSec: scale * float64(1000*g),
			})
		}
	}
	return rep
}

// TestCompareNativeBaseline pins the median-normalization semantics: a
// uniform hardware-speed shift passes at any magnitude; one point
// collapsing relative to the rest, or stalling outright, fails.
func TestCompareNativeBaseline(t *testing.T) {
	base := syntheticReport(1)

	// 5x faster across the board: a faster machine, not a regression.
	if n, err := CompareRecords(syntheticReport(5), base); err != nil || n != 6 {
		t.Fatalf("uniform speedup rejected: n=%d err=%v", n, err)
	}
	// 10x slower across the board: a slower machine, still fine.
	if _, err := CompareRecords(syntheticReport(0.1), base); err != nil {
		t.Fatalf("uniform slowdown rejected: %v", err)
	}
	// One point collapsed to 1/10 of its baseline while the rest held:
	// that is a real relative regression and must fail.
	fresh := syntheticReport(1)
	fresh.Points[0].OpsPerSec /= 10
	if _, err := CompareRecords(fresh, base); err == nil {
		t.Fatal("collapsed point passed the gate")
	}
	// One cell stalled to zero ops/s is an infinite regression, not a
	// point to skip.
	stalled := syntheticReport(1)
	stalled.Points[0].OpsPerSec = 0
	if n, err := CompareRecords(stalled, base); err == nil {
		t.Fatalf("stalled point passed the gate (matched %d)", n)
	}
	// Disjoint reports cannot be compared.
	disjoint := &NativeReport{Kind: NativeReportKind, Points: []NativePoint{
		{Structure: "other", Engine: "x", Goroutines: 1, ReadPct: 1, OpsPerSec: 1},
	}}
	if _, err := CompareRecords(disjoint, base); err == nil {
		t.Fatal("disjoint reports compared successfully")
	}
}
