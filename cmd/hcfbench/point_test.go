package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcf/internal/harness"
	"hcf/internal/metrics"
)

var (
	closedScenarios = []string{"hashtable", "avl", "pqueue", "stack", "deque", "sortedlist"}
	paperEngines    = []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"}
)

// TestPointScenariosEngines runs every closed-loop scenario under every
// paper engine through the counters probe, and HCF-S on the sharded
// scenario, and checks each report names its engine.
func TestPointScenariosEngines(t *testing.T) {
	for _, sc := range closedScenarios {
		for _, eng := range paperEngines {
			out := captureRun(t, "-fig", "point:"+sc, "-engines", eng, "-threads", "3", "-horizon", "5000")
			if !strings.Contains(out, "throughput  ") || !strings.Contains(out, "engine      "+eng+"\n") {
				t.Errorf("%s/%s:\n%s", sc, eng, out)
			}
		}
	}
	out := captureRun(t, "-fig", "point:sharded", "-engines", "HCF-S", "-shards", "2", "-threads", "3", "-horizon", "5000")
	if !strings.Contains(out, "engine      HCF-S") {
		t.Errorf("sharded/HCF-S:\n%s", out)
	}
}

// TestPointMetricsScenariosEngines runs every closed-loop scenario under
// every paper engine through the metrics probe.
func TestPointMetricsScenariosEngines(t *testing.T) {
	for _, sc := range closedScenarios {
		for _, eng := range paperEngines {
			out := captureRun(t, "-fig", "point:"+sc, "-probe", "metrics", "-engines", eng,
				"-threads", "3", "-horizon", "6000", "-interval", "2000")
			if !strings.Contains(out, "unit      cycles") {
				t.Errorf("%s/%s: unexpected output:\n%s", sc, eng, out)
			}
		}
	}
}

// TestPointTraceScenarios runs every closed-loop scenario through the
// trace probe under the default engine.
func TestPointTraceScenarios(t *testing.T) {
	for _, sc := range closedScenarios {
		out := captureRun(t, "-fig", "point:"+sc, "-probe", "trace", "-threads", "3", "-horizon", "5000")
		if !strings.Contains(out, "spans") || !strings.Contains(out, "engine HCF,") {
			t.Errorf("%s:\n%s", sc, out)
		}
	}
}

// TestPointTraceEngines runs every paper engine through the trace probe
// on the default scenario.
func TestPointTraceEngines(t *testing.T) {
	for _, eng := range paperEngines {
		out := captureRun(t, "-fig", "point", "-probe", "trace", "-engines", eng,
			"-threads", "3", "-horizon", "4000")
		if !strings.Contains(out, "spans") || !strings.Contains(out, "engine "+eng+",") {
			t.Errorf("%s:\n%s", eng, out)
		}
	}
}

// TestPointCountersJSON checks the counters probe's json record.
func TestPointCountersJSON(t *testing.T) {
	out := captureRun(t, "-fig", "point:hashtable", "-engines", "HCF",
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

// TestPointErrors checks that an unknown scenario, engine or format is
// an error under every probe.
func TestPointErrors(t *testing.T) {
	for _, probe := range []string{"counters", "metrics", "trace"} {
		for _, args := range [][]string{
			{"-fig", "point:nope"},
			{"-fig", "point", "-engines", "nope"},
			{"-fig", "point", "-format", "xml"},
		} {
			if err := run(append(args, "-probe", probe, "-threads", "2", "-horizon", "5000")); err == nil {
				t.Errorf("-probe %s %v accepted", probe, args)
			}
		}
	}
}

// TestPointUnknownProbe checks that a probe name outside counters,
// metrics and trace is an error that names it, on any scenario.
func TestPointUnknownProbe(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "point", "-probe", "nope"},
		{"-fig", "point:elastic", "-probe", "nope"},
		{"-fig", "point", "-probe", ""},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "unknown probe") {
			t.Errorf("%v: got %v, want an unknown-probe error", args, err)
		}
	}
}

// TestPointTuneFlagRemoved pins that the autotuner report lives only in
// -fig autotune: -tune is not a point flag.
func TestPointTuneFlagRemoved(t *testing.T) {
	err := run([]string{"-fig", "point", "-tune"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -tune") {
		t.Errorf("-tune still parses: %v", err)
	}
}

// TestPointMetricsTuneFlagRemoved pins that the autotuner journal export
// lives only in -fig autotune: -tune is not a flag under the metrics
// probe either.
func TestPointMetricsTuneFlagRemoved(t *testing.T) {
	err := run([]string{"-fig", "point", "-probe", "metrics", "-tune", "-format", "prom"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -tune") {
		t.Errorf("-tune still parses: %v", err)
	}
}

// TestPointRejectUnreadFlags pins that a flag the chosen probe or
// scenario does not read, or a format the probe does not write, is an
// error before anything runs, and that the retired -limit spelling is an
// unknown flag.
func TestPointRejectUnreadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rec")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "point", "-probe", "counters", "-interval", "5000"}, "-interval does not apply"},
		{[]string{"-fig", "point", "-probe", "counters", "-timeline", "5"}, "-timeline does not apply"},
		{[]string{"-fig", "point", "-probe", "trace", "-serve", ":0"}, "-serve does not apply"},
		{[]string{"-fig", "point", "-probe", "trace", "-interval", "5000"}, "-interval does not apply"},
		{[]string{"-fig", "point", "-probe", "metrics", "-timeline", "5"}, "-timeline does not apply"},
		{[]string{"-fig", "point:hashtable", "-decisions", "5"}, "-decisions does not apply"},
		{[]string{"-fig", "point:hashtable", "-shards", "8"}, "-shards does not apply"},
		{[]string{"-fig", "point:pqueue", "-theta", "0.5"}, "-theta does not apply"},
		{[]string{"-fig", "point:elastic", "-engines", "HCF"}, "-engines does not apply"},
		{[]string{"-fig", "point:elastic", "-probe", "metrics"}, "only under -probe counters"},
		{[]string{"-fig", "point:elastic", "-hot", "90", "-horizon", "3", "-out", out}, "minimum of 16 cycles"},
		{[]string{"-fig", "point", "-probe", "counters", "-format", "csv"}, "unknown format"},
		{[]string{"-fig", "point", "-probe", "metrics", "-format", "chrome"}, "unknown format"},
		{[]string{"-fig", "point", "-probe", "trace", "-format", "prom"}, "unknown format"},
		{[]string{"-fig", "point", "-probe", "trace", "-limit", "32"}, "flag provided but not defined: -limit"},
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

// TestPointRejectsOutOfRange pins that a point input its scenario or
// probe cannot take is an error naming the flag, before anything runs
// (no -out file), instead of a constructor's panic.
func TestPointRejectsOutOfRange(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "point", "-threads", "0"}, "-threads must be positive"},
		{[]string{"-fig", "point", "-find", "150"}, "-find must be in [0,100]"},
		{[]string{"-fig", "point", "-find", "-1"}, "-find must be in [0,100]"},
		{[]string{"-fig", "point:sharded", "-shards", "0"}, "-shards must be in [1,16384]"},
		{[]string{"-fig", "point:sharded", "-shards", "16385"}, "-shards must be in [1,16384]"},
		{[]string{"-fig", "point:sharded", "-hot", "150"}, "-hot must be in [0,100]"},
		{[]string{"-fig", "point:elastic", "-hot", "-1"}, "-hot must be in [0,100]"},
		{[]string{"-fig", "point:sharded", "-cross", "150"}, "-cross must be in [0,100]"},
		{[]string{"-fig", "point:avl", "-theta", "-1"}, "-theta must be in [0,1)"},
		{[]string{"-fig", "point:avl", "-theta", "1"}, "-theta must be in [0,1)"},
		{[]string{"-fig", "point", "-probe", "trace", "-trace-limit", "-1"}, "-trace-limit must be non-negative"},
		{[]string{"-fig", "point", "-probe", "metrics", "-interval", "-1"}, "-interval must be non-negative"},
	} {
		err := run(append(tc.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%v: wrote %s before rejecting", tc.args, out)
		}
	}
}

// TestPointElastic runs the elastic report on a small horizon: the
// decision journal, topology block and JSON shape must all come out.
func TestPointElastic(t *testing.T) {
	args := []string{"-fig", "point:elastic", "-hot", "90", "-threads", "4", "-horizon", "100000"}
	out := captureRun(t, append(args, "-decisions", "3")...)
	for _, want := range []string{"topology    epoch=", "rebalancer decisions (last 3 of "} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	out = captureRun(t, append(args, "-format", "json")...)
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

// TestPointMetricsText runs the metrics probe at its defaults but the
// interval and checks for the per-interval series and the percentile
// table.
func TestPointMetricsText(t *testing.T) {
	out := captureRun(t, "-fig", "point:hashtable", "-probe", "metrics", "-engines", "HCF",
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

func TestPointMetricsJSON(t *testing.T) {
	out := captureRun(t, "-fig", "point", "-probe", "metrics", "-engines", "HCF",
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

func TestPointMetricsCSV(t *testing.T) {
	out := captureRun(t, "-fig", "point", "-probe", "metrics", "-engines", "TLE",
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

func TestPointMetricsProm(t *testing.T) {
	out := captureRun(t, "-fig", "point:stack", "-probe", "metrics", "-engines", "FC",
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

func TestPointTraceTimeline(t *testing.T) {
	out := captureRun(t, "-fig", "point:pqueue", "-probe", "trace", "-threads", "2", "-horizon", "4000",
		"-timeline", "5")
	if !strings.Contains(out, "\nfirst 5 events:\n") {
		t.Errorf("no timeline:\n%s", out)
	}
}

func TestPointTraceJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "summary.json")
	if stdout := captureRun(t, "-fig", "point", "-probe", "trace", "-threads", "3",
		"-horizon", "5000", "-format", "json", "-out", out); stdout != "" {
		t.Errorf("-out report also went to stdout:\n%s", stdout)
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

func TestPointTraceChrome(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-fig", "point:hashtable", "-probe", "trace", "-threads", "4",
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

// TestPointFlightRecorderLimit runs the trace probe on a bounded ring,
// which drops events and must report it.
func TestPointFlightRecorderLimit(t *testing.T) {
	out := captureRun(t, "-fig", "point", "-probe", "trace", "-threads", "3",
		"-horizon", "6000", "-trace-limit", "32")
	if !strings.Contains(out, "dropped") {
		t.Errorf("no dropped-events report:\n%s", out)
	}
}

// TestPointLostOutputFails pins that a report which cannot be written
// fails the run, under every probe and format, whether it goes to -out
// or to stdout.
func TestPointLostOutputFails(t *testing.T) {
	small := []string{"-fig", "point", "-threads", "2", "-horizon", "3000"}
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
		if err := runFull(t, args...); err == nil {
			t.Errorf("%v > /dev/full: no error", args)
		}
	}
}

// TestPointTraceDefaultHorizon pins that the trace reports print the
// horizon the run used: -horizon 0 runs the default 200000 cycles.
func TestPointTraceDefaultHorizon(t *testing.T) {
	args := []string{"-fig", "point", "-probe", "trace", "-threads", "2", "-horizon", "0"}
	var doc struct {
		Horizon int64 `json:"horizon"`
		Cycles  int64 `json:"cycles"`
	}
	if err := json.Unmarshal([]byte(captureRun(t, append(args, "-format", "json")...)), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Horizon != 200_000 || doc.Cycles < doc.Horizon {
		t.Errorf("json horizon %d, cycles %d; want horizon 200000 and cycles past it", doc.Horizon, doc.Cycles)
	}
	if text := captureRun(t, args...); !strings.Contains(text, "horizon 200000 cycles") {
		t.Errorf("text header does not name the 200000-cycle horizon:\n%s", text)
	}
}

// TestPointVerdict pins that a failed invariant check fails the run,
// whichever probe produced the point.
func TestPointVerdict(t *testing.T) {
	var pt point
	if err := verdict(pt); err != nil {
		t.Errorf("clean point: %v", err)
	}
	pt.Point = harness.Point{Result: harness.Result{InvariantViolation: "heap order broken"}}
	if err := verdict(pt); err == nil || !strings.Contains(err.Error(), "heap order broken") {
		t.Errorf("violating point: %v", err)
	}
}

// TestPointCPUProfileEveryProbe pins that -cpuprofile writes a profile
// under every probe, the elastic scenario included.
func TestPointCPUProfileEveryProbe(t *testing.T) {
	dir := t.TempDir()
	for i, args := range [][]string{
		{"-fig", "point", "-probe", "counters", "-horizon", "3000"},
		{"-fig", "point", "-probe", "metrics", "-horizon", "3000"},
		{"-fig", "point", "-probe", "trace", "-horizon", "3000"},
		{"-fig", "point:elastic", "-horizon", "20000"},
	} {
		prof := filepath.Join(dir, strings.Repeat("p", i+1))
		captureRun(t, append(args, "-threads", "2", "-cpuprofile", prof)...)
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("%v: no profile written (%v)", args, err)
		}
	}
}
