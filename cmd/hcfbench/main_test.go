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

	"hcf/internal/engine"
	"hcf/internal/harness"
	"hcf/internal/memsim"
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
	if err := run([]string{"-fig", "bench:nope"}); err == nil {
		t.Error("unknown bench figure accepted")
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
	out, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// capture runs the command with args and returns what it printed and
// its error.
func capture(t *testing.T, args ...string) (string, error) {
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
	return string(<-done), runErr
}

// runFull runs the command with stdout on /dev/full, where every write
// fails, and returns its error.
func runFull(t *testing.T, args ...string) error {
	t.Helper()
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	old := os.Stdout
	os.Stdout = full
	defer func() { os.Stdout = old }()
	return run(args)
}

// TestLostOutputFails pins that figure and record runs fail, in every
// output format, when their stdout cannot be written.
func TestLostOutputFails(t *testing.T) {
	small := []string{"-threads", "2", "-horizon", "5000", "-engines", "Lock"}
	for _, args := range [][]string{
		{"-fig", "stack"},
		{"-fig", "stack", "-csv"},
		{"-fig", "stack", "-json"},
		{"-fig", "bench:stack"},
		{"-fig", "bench:stack", "-json"},
	} {
		args = append(args, small...)
		if err := runFull(t, args...); err == nil {
			t.Errorf("%v > /dev/full: no error", args)
		}
	}
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
// -dur for every figure, nothing per figure, and the -fig point probe,
// format and scenario flags.
func TestFlagSet(t *testing.T) {
	var got []string
	newFlagSet(&options{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"baseline", "cpuprofile", "cross", "csv", "decisions", "dur", "engines",
		"fig", "find", "format", "horizon", "hot", "json", "list", "memprofile",
		"out", "parallel", "probe", "rates", "seed", "seeds", "serve", "shards", "theta",
		"threads", "timeline", "trace-limit"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags = %v\nwant    %v", got, want)
	}
	// The per-figure forms the shared pair replaced, the retired
	// wall-clock -real mode, the -bench switch -fig bench replaced, the
	// point inspector's own -scenario and -engine spellings, the
	// autotuner's old -tune switch and the metrics probe's -interval
	// (now a twentieth of the horizon) no longer parse.
	var gone []string
	for _, fig := range []string{"native", "kv", "openloop"} {
		gone = append(gone, "-"+fig+"-baseline")
	}
	for _, fig := range []string{"native", "kv"} {
		gone = append(gone, "-"+fig+"-dur")
	}
	gone = append(gone, "-bench"+"-out", "-elastic-"+"gate", "-elastic-"+"rate", "-real", "-real"+"-ops",
		"-bench", "-scenario", "-engine", "-tune", "-interval")
	for _, name := range gone {
		err := run([]string{"-fig", "stack", name, "1"})
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: got %v, want a parse error", name, err)
		}
	}
}

// TestRejectUnusedFlags checks that a flag the selected run ignores, a
// second thread count or engine where one is taken, or an elastic horizon
// too short to cut into windows, is an error before anything runs: none
// of these creates its -out file. TestPointRejectUnreadFlags covers the
// flags a -fig point probe or scenario ignores.
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
		{[]string{"-fig", "bench", "-dur", "10"}, "does not apply"},
		{[]string{"-fig", "elastic", "-baseline", out}, "does not apply"},
		{[]string{"-fig", "native", "-horizon", "5000"}, "does not apply"},
		{[]string{"-fig", "kv", "-seed", "3"}, "does not apply"},
		{[]string{"-fig", "kv", "-engines", "HCF"}, "does not apply"},
		{[]string{"-fig", "bench:stack", "-csv", "-out", out}, "does not apply"},
		{[]string{"-fig", "autotune", "-baseline", out}, "does not apply"},
		{[]string{"-fig", "autotune", "-parallel", "2"}, "does not apply"},
		{[]string{"-fig", "stack", "-seeds", "2"}, "does not apply"},
		{[]string{"-fig", "explore", "-json"}, "does not apply"},
		{[]string{"-fig", "explore:avl", "-horizon", "5000"}, "does not apply"},
		{[]string{"-fig", "explore", "-out", out}, "does not apply"},
		{[]string{"-fig", "explore", "-threads", "2,3"}, "exactly one thread count"},
		{[]string{"-fig", "explore", "-seeds", "0"}, "-seeds must be positive"},
		{[]string{"-fig", "explore:hashtable", "-engines", "HCF-E"}, "HCF-E cannot run scenario hashtable"},
		{[]string{"-fig", "explore:elastic", "-seeds", "2", "-engines", "HCF"}, "HCF cannot run scenario elastic"},
		{[]string{"-fig", "elastic", "-horizon", "3", "-out", out}, "minimum of 16 cycles"},
		{[]string{"-fig", "stack", "-probe", "trace"}, "does not apply"},
		{[]string{"-fig", "openloop", "-format", "json"}, "does not apply"},
		{[]string{"-fig", "explore", "-find", "10"}, "does not apply"},
		{[]string{"-fig", "point", "-json", "-out", out}, "does not apply"},
		{[]string{"-fig", "point", "-csv"}, "does not apply"},
		{[]string{"-fig", "point", "-baseline", out}, "does not apply"},
		{[]string{"-fig", "point", "-dur", "10"}, "does not apply"},
		{[]string{"-fig", "point", "-rates", "1000"}, "does not apply"},
		{[]string{"-fig", "point", "-seeds", "2"}, "does not apply"},
		{[]string{"-fig", "point", "-parallel", "2"}, "does not apply"},
		{[]string{"-fig", "point", "-engines", "Lock,HCF", "-out", out}, "exactly one engine"},
		{[]string{"-fig", "point", "-threads", "2,3", "-out", out}, "exactly one thread count"},
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

// TestBenchBaselineGate drives the shared tail end to end: the -fig bench
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
		return run([]string{"-fig", "bench:stack", "-threads", "2", "-horizon", "5000",
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

// TestExploreSweep runs -fig explore over three scenarios and every
// engine each lists, and checks the combination count it reports.
func TestExploreSweep(t *testing.T) {
	out := captureRun(t, "-fig", "explore:counter,hashtable,avl", "-seeds", "3", "-threads", "4")
	if !strings.Contains(out, "ok: 54 explored") { // 3 seeds x 3 scenarios x 6 engines
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestExploreErrors checks that -fig explore rejects an unknown
// scenario or engine name before anything runs.
func TestExploreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "explore:nope", "-seeds", "3", "-engines", "HCF"}, `unknown scenario "nope"`},
		{[]string{"-fig", "explore", "-seeds", "1", "-engines", "nope"}, `unknown engine "nope"`},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestReproCommandRoundTrips feeds a repro line back through run: it
// must replay exactly that combination (and pass, since the code is
// clean).
func TestReproCommandRoundTrips(t *testing.T) {
	line := reproCommand("avl", "HCF", 17, 5)
	args := strings.Fields(line)
	if len(args) < 3 || args[0] != "go" || args[1] != "run" || args[2] != "./cmd/hcfbench" {
		t.Fatalf("repro line is not a go run command: %s", line)
	}
	if out := captureRun(t, args[3:]...); !strings.Contains(out, "ok: 1 explored") {
		t.Fatalf("repro line %s replayed more or less than one combination:\n%s", line, out)
	}
}

// offByOne is a counter model that runs one ahead of the counter.
type offByOne struct{ v uint64 }

func (m *offByOne) Apply(engine.Op) uint64 {
	m.v++
	return m.v
}

// TestExploreFailurePrintsRepro drives a failing sweep: a counter
// scenario with a wrong replay model. The run fails; each failure prints
// its FAIL line, repro line, flight-recorder dump and minimized span
// trace, in seed then engine order on two host goroutines; and the
// printed repro line, fed back through run, prints the same failure
// again.
func TestExploreFailurePrintsRepro(t *testing.T) {
	counter := harness.ExploreScenarios()[0]
	setup := counter.Setup
	broken := counter
	broken.Scenario = harness.Scenario{Name: "offbyone", Setup: func(env memsim.Env, seed uint64) harness.Instance {
		inst := setup(env, seed)
		inst.Model = &offByOne{}
		return inst
	}}
	defer func(old func() []harness.Explorable) { exploreRegistry = old }(exploreRegistry)
	exploreRegistry = func() []harness.Explorable { return append(harness.ExploreScenarios(), broken) }

	out, err := capture(t, "-fig", "explore:offbyone", "-engines", "HCF,FC", "-seed", "5", "-seeds", "2",
		"-threads", "3", "-parallel", "2")
	if err == nil || !strings.Contains(err.Error(), "4 of 4 schedule") {
		t.Fatalf("wrong model passed or miscounted: %v\n%s", err, out)
	}
	var fails []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "FAIL ") {
			fails = append(fails, strings.TrimPrefix(line, "FAIL engine="))
		}
	}
	if got := strings.Join(fails, "; "); got != "HCF scenario=offbyone seed=5; FC scenario=offbyone seed=5; "+
		"HCF scenario=offbyone seed=6; FC scenario=offbyone seed=6" || !strings.HasPrefix(out, "FAIL ") {
		t.Fatalf("failures out of order: %s\n%s", got, out)
	}
	blocks := strings.SplitAfter(out, "\nFAIL ")
	first := strings.TrimSuffix(blocks[0], "FAIL ")
	for _, part := range []string{"\nrepro: go run ./cmd/hcfbench ", "flight recorder (most recent events):",
		"minimized span trace (last operations):\nspan t"} {
		if !strings.Contains(first, part) {
			t.Errorf("failure lacks %q:\n%s", part, first)
		}
	}
	repro := strings.TrimPrefix(strings.Split(first, "\n")[1], "repro: ")
	args := strings.Fields(repro)
	replay, err := capture(t, args[3:]...)
	if err == nil || !strings.Contains(err.Error(), "1 of 1 schedule") {
		t.Fatalf("repro %s: %v", repro, err)
	}
	if replay != first {
		t.Fatalf("repro %s did not replay the failure;\nfirst:\n%s\nreplay:\n%s", repro, first, replay)
	}
}
