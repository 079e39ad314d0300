package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hcf/internal/engine"
)

// probeCase is one probed run checked against the plain RunPoint.
type probeCase struct {
	sc     Scenario
	engine string
	probes Probes
}

// checkProbesDoNotPerturb runs each case plain and probed and checks the
// probed Result is bit-identical, and that each probe saw the run.
func checkProbesDoNotPerturb(t *testing.T, cases []probeCase, threads int, cfg Config) {
	t.Helper()
	for _, c := range cases {
		label := fmt.Sprintf("%s %+v", c.engine, c.probes)
		plain, err := RunPoint(c.sc, c.engine, threads, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		pt, err := RunPointWith(c.sc, c.engine, threads, cfg, c.probes)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(plain, pt.Result) {
			t.Errorf("%s: probed Result differs from plain run:\nplain  %+v\nprobed %+v",
				label, plain, pt.Result)
		}
		if c.probes.Metrics && pt.Report.Totals.Ops != pt.Ops {
			t.Errorf("%s: report totals %d ops, result has %d", label, pt.Report.Totals.Ops, pt.Ops)
		}
		if c.probes.Trace && pt.Trace.Starts() == 0 {
			t.Errorf("%s: collector saw no operations", label)
		}
		if c.probes.Metrics && c.probes.Trace && pt.Report.Trace.Starts != pt.Trace.Starts() {
			t.Errorf("%s: report trace health %+v, collector saw %d starts", label, pt.Report.Trace, pt.Trace.Starts())
		}
	}
}

// TestMeteredRunIsDeterministic checks the key design invariant of the
// metrics subsystem: recording reads thread-local clocks only and charges no
// simulated cycles, so an instrumented run produces a bit-identical Result
// to the uninstrumented one, alone or combined with tracing. HCF-S runs
// too: its recorder is split into per-shard views.
func TestMeteredRunIsDeterministic(t *testing.T) {
	ht := HashTableScenario(40, 1024)
	var cases []probeCase
	for _, p := range []Probes{
		{Metrics: true, Interval: 10_000},
		{Metrics: true, Trace: true, TraceLimit: 64},
	} {
		for _, name := range EngineNames {
			cases = append(cases, probeCase{ht, name, p})
		}
	}
	// HCF-S has no tracer.
	cases = append(cases, probeCase{ShardedHashTableScenario(40, 1024, 4, 0, 0), ShardedEngineName, Probes{Metrics: true}})
	checkProbesDoNotPerturb(t, cases, 6, Config{Horizon: 40_000, Seed: 7})
}

// TestTracingDoesNotPerturbRun is the zero-perturbation acceptance test:
// recording with the flight recorder on the deterministic backend must
// leave the run's results bit-identical to an untraced run, with both an
// unbounded collector and a tight flight-recorder ring.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	sc := HashTableScenario(40, 1024)
	var cases []probeCase
	for _, name := range EngineNames {
		for _, limit := range []int{0, 16} {
			cases = append(cases, probeCase{sc, name, Probes{Trace: true, TraceLimit: limit}})
		}
	}
	checkProbesDoNotPerturb(t, cases, 4, Config{Horizon: 10_000, Seed: 3})
}

func TestMeteredReportContents(t *testing.T) {
	sc := HashTableScenario(40, 1024)
	pt, err := RunPointWith(sc, "HCF", 8, Config{Horizon: 60_000, Seed: 1}, Probes{Metrics: true, Interval: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	res, rep := pt.Result, pt.Report
	if rep.TimeUnit != "cycles" {
		t.Errorf("TimeUnit = %q, want cycles", rep.TimeUnit)
	}
	if want := []string{"find", "insert", "remove"}; !reflect.DeepEqual(rep.Classes, want) {
		t.Errorf("Classes = %v, want %v", rep.Classes, want)
	}
	if want := []string{"TryPrivate", "TryVisible", "TryCombining", "CombineUnderLock"}; !reflect.DeepEqual(rep.Paths, want) {
		t.Errorf("Paths = %v, want %v", rep.Paths, want)
	}
	if len(rep.Intervals) < 5 {
		t.Errorf("intervals = %d, want >= 5 for a 60k-cycle run sampled every 10k", len(rep.Intervals))
	}
	// The time series partitions the run: contiguous intervals whose op
	// counts sum to the run total.
	var ivOps uint64
	last := int64(0)
	for i, iv := range rep.Intervals {
		if iv.Start != last {
			t.Errorf("interval %d starts at %d, previous ended at %d", i, iv.Start, last)
		}
		last = iv.End
		ivOps += iv.Ops
	}
	if ivOps != res.Ops {
		t.Errorf("interval ops sum to %d, run completed %d", ivOps, res.Ops)
	}
	if len(rep.ClassLatency) == 0 || len(rep.OpLatency) == 0 {
		t.Fatalf("empty latency tables: class %d rows, op %d rows",
			len(rep.ClassLatency), len(rep.OpLatency))
	}
	for _, ls := range rep.ClassLatency {
		if ls.Count == 0 || ls.P50 > ls.P90 || ls.P90 > ls.P99 || ls.P99 > ls.Max {
			t.Errorf("class %s: implausible percentiles %+v", ls.Class, ls.HistStat)
		}
	}
	if len(rep.TxLatency) == 0 || rep.TxLatency[0].Outcome != "commit" {
		t.Errorf("TxLatency = %+v, want commit row first", rep.TxLatency)
	}
}

// TestMeteredBaselinePaths checks each baseline labels its completion paths
// and that completed ops distribute over them.
func TestMeteredBaselinePaths(t *testing.T) {
	want := map[string][]string{
		"Lock":   {engine.PathLock},
		"TLE":    {engine.PathHTM, engine.PathLock},
		"SCM":    {engine.PathHTM, engine.PathHTMManaged, engine.PathLock},
		"FC":     {engine.PathCombiner, engine.PathHelped},
		"TLE+FC": {engine.PathHTM, engine.PathCombiner, engine.PathHelped},
	}
	sc := HashTableScenario(40, 256)
	for eng, paths := range want {
		pt, err := RunPointWith(sc, eng, 6, Config{Horizon: 30_000, Seed: 3}, Probes{Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		res, rep := pt.Result, pt.Report
		if !reflect.DeepEqual(rep.Paths, paths) {
			t.Errorf("%s: Paths = %v, want %v", eng, rep.Paths, paths)
		}
		var byPath uint64
		for _, n := range rep.Totals.OpsByPath {
			byPath += n
		}
		if byPath != res.Ops {
			t.Errorf("%s: ops by path sum to %d, run completed %d", eng, byPath, res.Ops)
		}
	}
}

func TestFormatJSONL(t *testing.T) {
	sc := HashTableScenario(40, 256)
	results, err := RunSweep(sc, []string{"Lock", "HCF"}, []int{2, 4}, Config{Horizon: 20_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := FormatJSONL(results)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4", len(lines))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line does not parse: %v\n%s", err, line)
		}
		for _, key := range []string{"scenario", "engine", "threads", "ops", "cycles", "throughput"} {
			if _, ok := rec[key]; !ok {
				t.Errorf("record missing %q: %s", key, line)
			}
		}
	}
	// HCF records carry the phase breakdown; Lock records must not.
	var hcfRec, lockRec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &lockRec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &hcfRec); err != nil {
		t.Fatal(err)
	}
	if _, ok := lockRec["phase_by_class"]; ok {
		t.Error("Lock record has phase_by_class")
	}
	if _, ok := hcfRec["phase_by_class"]; !ok {
		t.Error("HCF record lacks phase_by_class")
	}
}
