package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestAutotuneDeterministicReplay pins the replay contract of the tuned run:
// the same seed yields byte-identical sweep rows AND a byte-identical
// decision journal, so every artifact in bench/ can be regenerated exactly.
func TestAutotuneDeterministicReplay(t *testing.T) {
	run := func() ([]byte, []byte) {
		rep, err := RunAutotune(10, Config{Horizon: 90_000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		journal, err := rep.Journal.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rows, journal
	}
	rows1, j1 := run()
	rows2, j2 := run()
	if !bytes.Equal(rows1, rows2) {
		t.Errorf("sweep JSONL differs across identical seeds:\n%s\nvs\n%s", rows1, rows2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("decision journal differs across identical seeds:\n%s\nvs\n%s", j1, j2)
	}
}

// TestAutotuneReportShape checks the report surfaces every piece the tools
// and CI gate consume: per-segment rows, the tuned variant, a traceable
// journal, and the JSONL/text renderings.
func TestAutotuneReportShape(t *testing.T) {
	rep, err := RunAutotune(10, Config{Horizon: 90_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario == "" || len(rep.Variants) != len(AutotuneStatics())+2 {
		t.Fatalf("report shape: scenario=%q variants=%d", rep.Scenario, len(rep.Variants))
	}
	tuned := rep.Tuned()
	if tuned == nil {
		t.Fatal("no tuned variant in report")
	}
	if tuned.InvariantViolation != "" {
		t.Fatalf("tuned run broke invariants: %s", tuned.InvariantViolation)
	}
	if rep.Journal == nil || rep.Journal.Len() == 0 {
		t.Fatal("tuned run produced no decision journal")
	}
	for _, d := range rep.Journal.Entries() {
		if d.Evidence.Ops == 0 {
			t.Fatalf("decision without evidence: %+v", d)
		}
	}
	if bs := rep.BestStatic(); bs == nil || bs.Tuned {
		t.Fatal("BestStatic missing or tuned")
	}
	rows, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rows), "HCF-tuned") {
		t.Errorf("JSONL has no tuned rows:\n%s", rows)
	}
	text := rep.Text()
	for _, want := range []string{"HCF-tuned", "oracle", "post-drift"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q", want)
		}
	}
}

// TestRunAdaptiveComparison checks the autotune comparison flattened into
// sweep rows: total and post-drift per variant (the static grid, the tuned
// run, the oracle).
func TestRunAdaptiveComparison(t *testing.T) {
	rep, err := RunAutotune(12, Config{Horizon: 120_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results()
	if want := 2 * (len(AutotuneStatics()) + 2); len(res) != want {
		t.Fatalf("Results() has %d rows, want %d", len(res), want)
	}
	tunedRow := false
	for _, r := range res {
		if r.Engine == "HCF-tuned" {
			tunedRow = true
		}
		if r.Ops == 0 {
			t.Fatalf("%s/%s: no ops", r.Engine, r.Scenario)
		}
		if r.InvariantViolation != "" {
			t.Fatalf("%s: %s", r.Engine, r.InvariantViolation)
		}
	}
	if !tunedRow {
		t.Fatal("Results() has no HCF-tuned row")
	}
}

// TestAutotuneCheck gives the record's check teeth on hand-made reports:
// the tuned run must reach 0.9x the HCF-paper variant, and any variant's
// invariant violation fails the run.
func TestAutotuneCheck(t *testing.T) {
	report := func(tuned float64) *AutotuneReport {
		return &AutotuneReport{Variants: []AutotuneVariant{
			{Name: "HCF-paper", Throughput: 1000},
			{Name: "HCF-static-8/2/0", Throughput: 1200},
			{Name: "HCF-tuned", Tuned: true, Throughput: tuned},
		}}
	}
	if err := report(900).Check(); err != nil {
		t.Fatalf("tuned at 0.9x failed: %v", err)
	}
	if err := report(890).Check(); err == nil || !strings.Contains(err.Error(), "0.89x") {
		t.Errorf("tuned at 0.89x passed: %v", err)
	}
	broken := report(1100)
	broken.Variants[1].InvariantViolation = "heap order broken"
	if err := broken.Check(); err == nil || !strings.Contains(err.Error(), "heap order broken") {
		t.Errorf("invariant violation passed: %v", err)
	}
	if err := (&AutotuneReport{Variants: report(1100).Variants[:1]}).Check(); err == nil {
		t.Error("report without a tuned variant passed")
	}
}

// TestAutotuneRecordRoundTrip decodes a fresh run's record back into
// variants: every variant, region and invariant violation survives.
func TestAutotuneRecordRoundTrip(t *testing.T) {
	rep, err := RunAutotune(4, Config{Horizon: 30_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep.Variants[2].InvariantViolation = "lost key 9"
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back AutotuneReport
	if err := back.Decode(data); err != nil {
		t.Fatal(err)
	}
	if back.Horizon != rep.Horizon || len(back.Variants) != len(rep.Variants) {
		t.Fatalf("decoded header/variants: %+v", back)
	}
	for i, v := range back.Variants {
		w := rep.Variants[i]
		w.FinalPolicy = nil // not in the record
		if !reflect.DeepEqual(v, w) {
			t.Errorf("variant %d decoded as %+v, want %+v", i, v, w)
		}
	}
	if err := back.Check(); err == nil || !strings.Contains(err.Error(), "lost key 9") {
		t.Errorf("decoded record hides the invariant violation: %v", err)
	}
}
