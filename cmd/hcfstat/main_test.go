package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcf/internal/harness"
	"hcf/internal/metrics"
)

// captureRun executes run(args) with stdout captured.
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return string(out)
}

func TestRunAllScenarios(t *testing.T) {
	for _, sc := range []string{"hashtable", "avl", "pqueue", "stack", "deque", "sortedlist"} {
		if err := run([]string{"-scenario", sc, "-engine", "HCF", "-threads", "3",
			"-horizon", "5000"}); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
}

func TestRunJSON(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-engine", "HCF",
		"-threads", "4", "-horizon", "20000", "-format", "json")
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out)
	}
	for _, key := range []string{"scenario", "engine", "threads", "ops", "throughput",
		"htm_started", "phase_by_class"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing %q", key)
		}
	}
	if rec["engine"] != "HCF" || rec["threads"] != float64(4) {
		t.Errorf("identity fields wrong: %v", rec)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-engine", "nope", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-probe", "nope"}); err == nil {
		t.Error("unknown probe accepted")
	}
}

// TestRunElastic runs the elastic report on a small horizon: the
// decision journal, topology block and JSON shape must all come out.
func TestRunElastic(t *testing.T) {
	if err := run([]string{"-scenario", "elastic", "-hot", "90", "-threads", "4",
		"-horizon", "100000", "-decisions", "3"}); err != nil {
		t.Fatal(err)
	}
	out := captureRun(t, "-scenario", "elastic", "-hot", "90", "-threads", "4",
		"-horizon", "100000", "-format", "json")
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out)
	}
	for _, key := range []string{"scenario", "engine", "mode", "topology", "decisions"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing %q", key)
		}
	}
	if rec["engine"] != "HCF-E" {
		t.Errorf("identity fields wrong: %v", rec["engine"])
	}
}

// TestTuneFlagRemoved pins that the autotuner report lives only in
// hcfbench -fig autotune: -tune is no longer a flag here.
func TestTuneFlagRemoved(t *testing.T) {
	err := run([]string{"-tune"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -tune") {
		t.Errorf("-tune still parses: %v", err)
	}
}

// TestMetricsTuneFlagRemoved pins that the autotuner journal export lives
// only in hcfbench -fig autotune: -tune is not a flag under the metrics
// probe either.
func TestMetricsTuneFlagRemoved(t *testing.T) {
	err := run([]string{"-probe", "metrics", "-tune", "-format", "prom"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -tune") {
		t.Errorf("-tune still parses: %v", err)
	}
}

// TestAcceptanceInvocation runs the exact command the metrics probe is
// specified against and checks for the per-interval series and the
// percentile table.
func TestAcceptanceInvocation(t *testing.T) {
	out := captureRun(t, "-probe", "metrics", "-scenario", "hashtable", "-engine", "HCF",
		"-threads", "18", "-interval", "10000")
	for _, want := range []string{
		"interval series (every 10000 cycles):",
		"thrpt", "commits", "aborts", "degree",
		"operation latency by class (cycles):",
		"p50", "p90", "p99",
		"find", "insert", "remove",
		"transaction duration by outcome (cycles):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The default 200k-cycle horizon sampled every 10k must produce a
	// substantial series, one line per interval.
	if n := strings.Count(out, "\n"); n < 25 {
		t.Errorf("only %d output lines, want a full interval series + tables:\n%s", n, out)
	}
}

func TestAllScenariosAllEngines(t *testing.T) {
	for _, sc := range []string{"hashtable", "avl", "pqueue", "stack", "deque"} {
		for _, eng := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
			out := captureRun(t, "-probe", "metrics", "-scenario", sc, "-engine", eng,
				"-threads", "3", "-horizon", "6000", "-interval", "2000")
			if !strings.Contains(out, "unit      cycles") {
				t.Errorf("%s/%s: unexpected output:\n%s", sc, eng, out)
			}
		}
	}
}

func TestJSONFormatRoundTrips(t *testing.T) {
	out := captureRun(t, "-probe", "metrics", "-scenario", "hashtable", "-engine", "HCF",
		"-threads", "4", "-horizon", "20000", "-interval", "5000", "-format", "json")
	var rep metrics.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if rep.Scenario == "" || rep.Engine != "HCF" || rep.Threads != 4 {
		t.Errorf("identity fields: %+v", rep)
	}
	if rep.Totals.Ops == 0 || len(rep.Intervals) == 0 || len(rep.ClassLatency) == 0 {
		t.Errorf("empty report sections: ops %d, intervals %d, classes %d",
			rep.Totals.Ops, len(rep.Intervals), len(rep.ClassLatency))
	}
}

func TestCSVFormatParses(t *testing.T) {
	out := captureRun(t, "-probe", "metrics", "-scenario", "hashtable", "-engine", "TLE",
		"-threads", "4", "-horizon", "20000", "-interval", "5000", "-format", "csv")
	tables := strings.Split(out, "\n\n")
	if len(tables) != 2 {
		t.Fatalf("want 2 CSV tables, got %d", len(tables))
	}
	for i, table := range tables {
		rows, err := csv.NewReader(strings.NewReader(table)).ReadAll()
		if err != nil {
			t.Fatalf("table %d does not parse: %v\n%s", i, err, table)
		}
		if len(rows) < 2 {
			t.Errorf("table %d has no data rows:\n%s", i, table)
		}
	}
}

func TestPromFormatParses(t *testing.T) {
	out := captureRun(t, "-probe", "metrics", "-scenario", "stack", "-engine", "FC",
		"-threads", "4", "-horizon", "20000", "-format", "prom")
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.Contains(fields[0], "{") {
			t.Errorf("malformed sample line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Error("no samples in prom output")
	}
	if !strings.Contains(out, `hcf_ops_total{scenario="stack/push=50%",engine="FC",`) {
		t.Errorf("missing base labels:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if err := run([]string{"-probe", "metrics", "-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-probe", "metrics", "-engine", "nope", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-probe", "metrics", "-format", "xml", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunScenarios(t *testing.T) {
	for _, sc := range []string{"hashtable", "avl", "pqueue", "stack", "deque", "sortedlist"} {
		if err := run([]string{"-probe", "trace", "-scenario", sc, "-threads", "3", "-horizon", "5000"}); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
}

func TestRunAllEngines(t *testing.T) {
	for _, eng := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		if err := run([]string{"-probe", "trace", "-scenario", "hashtable", "-engine", eng,
			"-threads", "3", "-horizon", "4000"}); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
	}
}

func TestRunTimelineAndErrors(t *testing.T) {
	if err := run([]string{"-probe", "trace", "-scenario", "pqueue", "-threads", "2", "-horizon", "4000",
		"-timeline", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-probe", "trace", "-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-probe", "trace", "-engine", "nope"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-probe", "trace", "-format", "nope"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestJSONOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "summary.json")
	if err := run([]string{"-probe", "trace", "-scenario", "hashtable", "-threads", "3",
		"-horizon", "5000", "-format", "json", "-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Engine  string `json:"engine"`
		Ops     uint64 `json:"ops"`
		Summary struct {
			Starts uint64 `json:"starts"`
		} `json:"summary"`
		Spans struct {
			Spans uint64 `json:"spans"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-format json output is not valid JSON: %v", err)
	}
	if doc.Engine != "HCF" || doc.Ops == 0 {
		t.Errorf("doc = %+v", doc)
	}
	if doc.Summary.Starts != doc.Ops || doc.Spans.Spans != doc.Ops {
		t.Errorf("starts %d / spans %d / ops %d disagree",
			doc.Summary.Starts, doc.Spans.Spans, doc.Ops)
	}
}

func TestChromeOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-probe", "trace", "-scenario", "hashtable", "-threads", "4",
		"-horizon", "8000", "-format", "chrome", "-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if cat, ok := ev["cat"].(string); ok {
			kinds[cat] = true
		}
	}
	for _, want := range []string{"op", "phase"} {
		if !kinds[want] {
			t.Errorf("chrome trace has no %q slices", want)
		}
	}
}

func TestFlightRecorderLimit(t *testing.T) {
	if err := run([]string{"-probe", "trace", "-scenario", "hashtable", "-threads", "3",
		"-horizon", "6000", "-trace-limit", "32"}); err != nil {
		t.Fatal(err)
	}
}

// TestLostOutputFails pins that a report which cannot be written fails
// the command, under every probe and format, whether it goes to -out or
// to stdout.
func TestLostOutputFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	small := []string{"-threads", "2", "-horizon", "3000"}
	for _, args := range [][]string{
		{"-probe", "counters"},
		{"-probe", "counters", "-format", "json"},
		{"-probe", "metrics"},
		{"-probe", "metrics", "-format", "csv"},
		{"-probe", "trace"},
		{"-probe", "trace", "-format", "chrome"},
	} {
		args = append(args, small...)
		if err := run(append(args, "-out", "/dev/full")); err == nil {
			t.Errorf("%v -out /dev/full: no error", args)
		}
		full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = full
		err = run(args)
		os.Stdout = old
		full.Close()
		if err == nil {
			t.Errorf("%v > /dev/full: no error", args)
		}
	}
}

// TestVerdict pins that a failed invariant check fails the command,
// whichever probe produced the point.
func TestVerdict(t *testing.T) {
	var pt point
	if err := verdict(pt); err != nil {
		t.Errorf("clean point: %v", err)
	}
	pt.Point = harness.Point{Result: harness.Result{InvariantViolation: "heap order broken"}}
	if err := verdict(pt); err == nil || !strings.Contains(err.Error(), "heap order broken") {
		t.Errorf("violating point: %v", err)
	}
}

// TestRejectUnreadFlags pins that a flag the chosen probe or scenario does
// not read, or a format the probe does not write, is an error, and that
// the retired spellings are unknown flags.
func TestRejectUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-probe", "counters", "-interval", "5000"}, "-interval does not apply"},
		{[]string{"-probe", "counters", "-timeline", "5"}, "-timeline does not apply"},
		{[]string{"-probe", "trace", "-serve", ":0"}, "-serve does not apply"},
		{[]string{"-probe", "trace", "-interval", "5000"}, "-interval does not apply"},
		{[]string{"-probe", "metrics", "-timeline", "5"}, "-timeline does not apply"},
		{[]string{"-scenario", "hashtable", "-decisions", "5"}, "-decisions does not apply"},
		{[]string{"-scenario", "hashtable", "-shards", "8"}, "-shards does not apply"},
		{[]string{"-scenario", "pqueue", "-theta", "0.5"}, "-theta does not apply"},
		{[]string{"-scenario", "elastic", "-engine", "HCF"}, "-engine does not apply"},
		{[]string{"-probe", "metrics", "-scenario", "elastic"}, "only under -probe counters"},
		{[]string{"-scenario", "elastic", "-hot", "90", "-horizon", "3"}, "minimum of 16 cycles"},
		{[]string{"-probe", "counters", "-format", "csv"}, "unknown format"},
		{[]string{"-probe", "metrics", "-format", "chrome"}, "unknown format"},
		{[]string{"-probe", "trace", "-format", "prom"}, "unknown format"},
		{[]string{"-json"}, "flag provided but not defined: -json"},
		{[]string{"-probe", "trace", "-limit", "32"}, "flag provided but not defined: -limit"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestCPUProfileEveryProbe pins that -cpuprofile writes a profile under
// every probe, the elastic scenario included.
func TestCPUProfileEveryProbe(t *testing.T) {
	dir := t.TempDir()
	for i, args := range [][]string{
		{"-probe", "counters", "-horizon", "3000"},
		{"-probe", "metrics", "-horizon", "3000"},
		{"-probe", "trace", "-horizon", "3000"},
		{"-scenario", "elastic", "-horizon", "20000"},
	} {
		prof := filepath.Join(dir, strings.Repeat("p", i+1))
		captureRun(t, append(args, "-threads", "2", "-cpuprofile", prof)...)
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("%v: no profile written (%v)", args, err)
		}
	}
}
