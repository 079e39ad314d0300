package main

import (
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

// TestRunJSONL checks -json emits one parseable record per
// (scenario, engine, threads) cell.
func TestRunJSONL(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-fig", "stack", "-threads", "2,3", "-horizon", "5000",
		"-engines", "Lock,HCF", "-json"})
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
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

func TestJSONRejectedWithReal(t *testing.T) {
	if err := run([]string{"-fig", "stack", "-real", "-json"}); err == nil {
		t.Error("-json with -real accepted")
	}
}

// TestFlagSet pins the command line: one -out/-baseline pair and one
// -dur for every figure, nothing per figure.
func TestFlagSet(t *testing.T) {
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"baseline", "bench", "cpuprofile", "csv", "dur", "engines", "fig",
		"horizon", "json", "list", "memprofile", "out", "parallel", "rates", "real",
		"real-ops", "seed", "serve", "threads"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags = %v\nwant    %v", got, want)
	}
	// The per-figure forms the shared pair replaced no longer parse.
	var gone []string
	for _, fig := range []string{"native", "kv", "openloop"} {
		gone = append(gone, "-"+fig+"-baseline")
	}
	for _, fig := range []string{"native", "kv"} {
		gone = append(gone, "-"+fig+"-dur")
	}
	gone = append(gone, "-bench"+"-out", "-elastic-"+"gate", "-elastic-"+"rate")
	for _, name := range gone {
		err := run([]string{"-fig", "stack", name, "1"})
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: got %v, want a parse error", name, err)
		}
	}
}

// TestRejectUnusedFlags checks that a flag the selected run ignores is
// an error before anything runs: none of these creates its -out file.
func TestRejectUnusedFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rec")
	for _, args := range [][]string{
		{"-fig", "openloop", "-csv"},
		{"-fig", "elastic", "-csv"},
		{"-fig", "native", "-csv"},
		{"-fig", "stack", "-baseline", out},
		{"-fig", "stack", "-out", out},
		{"-fig", "all", "-out", out},
		{"-fig", "stack", "-rates", "1000"},
		{"-fig", "native", "-rates", "1000"},
		{"-fig", "stack", "-serve", "127.0.0.1:0"},
		{"-fig", "kv", "-serve", "127.0.0.1:0"},
		{"-fig", "stack", "-dur", "10"},
		{"-fig", "openloop", "-dur", "10"},
		{"-fig", "elastic", "-dur", "10"},
		{"-bench", "-dur", "10"},
		{"-fig", "elastic", "-baseline", out},
		{"-fig", "native", "-horizon", "5000"},
		{"-fig", "kv", "-seed", "3"},
		{"-fig", "kv", "-engines", "HCF"},
		{"-fig", "native", "-real"},
		{"-fig", "stack", "-real", "-out", out},
		{"-fig", "stack", "-real-ops", "5"},
		{"-bench", "-csv", "-out", out},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("%v: got %v, want a rejected flag", args, err)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%v: wrote %s before rejecting", args, out)
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
