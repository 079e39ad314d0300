package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcf/internal/harness"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 8,36")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 8 || got[2] != 36 {
		t.Fatalf("got %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := parseInts("0"); err == nil {
		t.Error("zero accepted")
	}
	if _, err := parseInts("-3"); err == nil {
		t.Error("negative accepted")
	}
}

func TestRunListAndErrors(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
	if err := run([]string{}); err == nil {
		t.Error("missing -fig accepted")
	}
	if err := run([]string{"-fig", "nope"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-fig", "2a", "-threads", "bad"}); err == nil {
		t.Error("bad thread list accepted")
	}
}

func TestRunTinyFigure(t *testing.T) {
	err := run([]string{"-fig", "stack", "-threads", "2", "-horizon", "5000",
		"-engines", "Lock,HCF", "-csv"})
	if err != nil {
		t.Fatal(err)
	}
}

// captureRun runs the command with args and returns what it printed.
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	runErr := run(args)
	os.Stdout = old
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestRunJSONL checks -json emits one parseable record per
// (scenario, engine, threads) cell.
func TestRunJSONL(t *testing.T) {
	out := captureRun(t, "-fig", "stack", "-threads", "2,3", "-horizon", "5000",
		"-engines", "Lock,HCF", "-json")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // 2 thread counts x 2 engines
		t.Fatalf("got %d JSONL records, want 4:\n%s", len(lines), out)
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record does not parse: %v\n%s", err, line)
		}
		for _, key := range []string{"scenario", "engine", "threads", "ops", "throughput"} {
			if _, ok := rec[key]; !ok {
				t.Errorf("record missing %q: %s", key, line)
			}
		}
	}
}

// TestOpenLoopIntervalFromHorizon pins that the sampler interval follows
// the normalized horizon: -horizon 0 runs the default 200000 cycles, so
// the interval is a twentieth of that, not one cycle.
func TestOpenLoopIntervalFromHorizon(t *testing.T) {
	out := captureRun(t, "-fig", "openloop", "-horizon", "0", "-rates", "2000",
		"-engines", "HCF", "-threads", "4", "-json")
	var hdr harness.OpenLoopReport
	if err := json.Unmarshal([]byte(out[:strings.IndexByte(out, '\n')]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Horizon != 200_000 || hdr.Interval != 10_000 {
		t.Fatalf("horizon %d interval %d, want 200000 and 10000", hdr.Horizon, hdr.Interval)
	}
}

// TestFlagSet pins the command line: one -out/-baseline pair and one
// -dur for every figure, nothing per figure.
func TestFlagSet(t *testing.T) {
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"baseline", "bench", "cpuprofile", "csv", "dur", "engines", "fig",
		"horizon", "json", "list", "memprofile", "out", "parallel", "rates", "seed",
		"serve", "threads"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags = %v\nwant    %v", got, want)
	}
	// The per-figure forms the shared pair replaced, and the retired
	// wall-clock -real mode, no longer parse.
	var gone []string
	for _, fig := range []string{"native", "kv", "openloop"} {
		gone = append(gone, "-"+fig+"-baseline")
	}
	for _, fig := range []string{"native", "kv"} {
		gone = append(gone, "-"+fig+"-dur")
	}
	gone = append(gone, "-bench"+"-out", "-elastic-"+"gate", "-elastic-"+"rate", "-real", "-real"+"-ops")
	for _, name := range gone {
		err := run([]string{"-fig", "stack", name, "1"})
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: got %v, want a parse error", name, err)
		}
	}
}

// TestRejectUnusedFlags checks that a flag the selected run ignores, or
// an elastic horizon too short to cut into windows, is an error before
// anything runs: none of these creates its -out file.
func TestRejectUnusedFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rec")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "openloop", "-csv"}, "does not apply"},
		{[]string{"-fig", "elastic", "-csv"}, "does not apply"},
		{[]string{"-fig", "native", "-csv"}, "does not apply"},
		{[]string{"-fig", "stack", "-baseline", out}, "does not apply"},
		{[]string{"-fig", "stack", "-out", out}, "does not apply"},
		{[]string{"-fig", "all", "-out", out}, "does not apply"},
		{[]string{"-fig", "stack", "-rates", "1000"}, "does not apply"},
		{[]string{"-fig", "native", "-rates", "1000"}, "does not apply"},
		{[]string{"-fig", "stack", "-serve", "127.0.0.1:0"}, "does not apply"},
		{[]string{"-fig", "kv", "-serve", "127.0.0.1:0"}, "does not apply"},
		{[]string{"-fig", "stack", "-dur", "10"}, "does not apply"},
		{[]string{"-fig", "openloop", "-dur", "10"}, "does not apply"},
		{[]string{"-fig", "elastic", "-dur", "10"}, "does not apply"},
		{[]string{"-bench", "-dur", "10"}, "does not apply"},
		{[]string{"-fig", "elastic", "-baseline", out}, "does not apply"},
		{[]string{"-fig", "native", "-horizon", "5000"}, "does not apply"},
		{[]string{"-fig", "kv", "-seed", "3"}, "does not apply"},
		{[]string{"-fig", "kv", "-engines", "HCF"}, "does not apply"},
		{[]string{"-bench", "-csv", "-out", out}, "does not apply"},
		{[]string{"-fig", "autotune", "-baseline", out}, "does not apply"},
		{[]string{"-fig", "autotune", "-parallel", "2"}, "does not apply"},
		{[]string{"-fig", "elastic", "-horizon", "3", "-out", out}, "minimum of 16 cycles"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%v: wrote %s before rejecting", tc.args, out)
		}
	}
}

// TestBenchBaselineGate drives the shared tail end to end: the -bench
// record fails against a baseline far faster than any host and passes
// against a far slower one, writing -out either way.
func TestBenchBaselineGate(t *testing.T) {
	dir := t.TempDir()
	baseline := func(v float64) string {
		data, err := (&harness.HostBenchReport{Kind: harness.HostBenchKind, Figure: "stack",
			SimMcyclesPerHostSec: v}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("base-%g.json", v))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := func(out, base string) error {
		return run([]string{"-bench", "-fig", "stack", "-threads", "2", "-horizon", "5000",
			"-engines", "Lock,HCF", "-out", out, "-baseline", base})
	}
	if err := bench(filepath.Join(dir, "slow.json"), baseline(1e12)); err == nil ||
		!strings.Contains(err.Error(), "regressed") {
		t.Fatalf("run far below the baseline passed: %v", err)
	}
	out := filepath.Join(dir, "fast.json")
	if err := bench(out, baseline(1e-12)); err != nil {
		t.Fatalf("run far above the baseline failed: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec harness.HostBenchReport
	if err := rec.Decode(data); err != nil || rec.Figure != "stack" || rec.Points != 2 {
		t.Fatalf("-out record: %+v, %v", rec, err)
	}
}

// TestAutotuneRecordAndJournal runs -fig autotune through the shared
// tail: -out writes the record and, beside it, the decision journal of
// the same run.
func TestAutotuneRecordAndJournal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a.jsonl")
	if err := run([]string{"-fig", "autotune", "-threads", "4", "-horizon", "30000", "-out", out}); err != nil {
		t.Fatal(err)
	}
	rep, err := harness.RunAutotune(4, harness.Config{Horizon: 30000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantJournal, err := rep.Journal.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{
		out: wantRec,
		strings.TrimSuffix(out, ".jsonl") + ".journal.json": append(wantJournal, '\n'),
	} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the same run's encoding:\n%s\nwant\n%s", path, got, want)
		}
	}
}
