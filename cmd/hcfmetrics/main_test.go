package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

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

// TestAcceptanceInvocation runs the exact command the subsystem is specified
// against and checks for the per-interval series and the percentile table.
func TestAcceptanceInvocation(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-engine", "HCF",
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
			out := captureRun(t, "-scenario", sc, "-engine", eng,
				"-threads", "3", "-horizon", "6000", "-interval", "2000")
			if !strings.Contains(out, "unit      cycles") {
				t.Errorf("%s/%s: unexpected output:\n%s", sc, eng, out)
			}
		}
	}
}

func TestJSONFormatRoundTrips(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-engine", "HCF",
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
	out := captureRun(t, "-scenario", "hashtable", "-engine", "TLE",
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
	out := captureRun(t, "-scenario", "stack", "-engine", "FC",
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
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-engine", "nope", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-format", "xml", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestTuneFlagRemoved pins that the autotuner journal export lives only in
// hcftune: -tune is no longer a flag here.
func TestTuneFlagRemoved(t *testing.T) {
	err := run([]string{"-tune", "-format", "prom"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -tune") {
		t.Errorf("-tune still parses: %v", err)
	}
}
