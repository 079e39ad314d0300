package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	mapKeys: 1 << 12, mapOps: 1 << 14, mapSolo: 1 << 10,
	pqPrefill: 64, pqOps: 1 << 12, pqSolo: 256,
	kvKeys: 1 << 10, kvOps: 4000, kvSolo: 500,
	simHorizon: 5000, simThreads: 4,
	setups: 1,
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs one workload at tiny sizes and returns the exit code, the
// parsed result line and the whole output.
func runTiny(t *testing.T, w workloadSpec, trace, fault bool) (int, resultLine, string) {
	t.Helper()
	c := &config{seed: 7, trace: trace, dir: t.TempDir(), sizes: tinySizes, injectFault: fault}
	var out, errs bytes.Buffer
	code := runWorkloads(c, []workloadSpec{w}, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s%s", w.name, err, out.String(), errs.String())
	}
	return code, line, out.String() + errs.String()
}

func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", names, ours)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced at tiny sizes: every check passes and the result line carries
// exactly the metrics BENCHMARK.json names, end-to-end ones non-zero.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			code, line, out := runTiny(t, w, trace, false)
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w.name, trace, code, line, out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer()
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q", w.name, trace, d.name, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if !strings.Contains(out, "env {") || !strings.Contains(out, `"go_version"`) {
				t.Errorf("%s trace=%v: no provenance block in the report", w.name, trace)
			}
			if trace && !strings.Contains(out, "# span file ") {
				t.Errorf("%s: traced run wrote no span file\n%s", w.name, out)
			}
		}
	}
}

// TestInjectedFaultFailsTheRun corrupts one checked result per workload:
// the failure must show in the result line and the exit code.
func TestInjectedFaultFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		code, line, out := runTiny(t, w, false, true)
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s: a corrupted result went unnoticed: exit %d, result %+v\n%s", w.name, code, line, out)
		}
		if !strings.Contains(out, "error_rate") {
			t.Errorf("%s: the report does not show error_rate", w.name)
		}
	}
}

func TestSpanTableSelfTime(t *testing.T) {
	l := newSpanLog()
	l.spans = []span{
		{id: 1, name: "client", layer: "perfbench", start: 0, end: 100},
		{id: 2, parent: 1, name: "get", layer: "internal/native", start: 10, end: 30},
		{id: 3, parent: 1, name: "get", layer: "internal/native", start: 40, end: 70},
	}
	rows := l.table()
	if len(rows) != 2 {
		t.Fatalf("rows %+v", rows)
	}
	get, client := rows[0], rows[1]
	if get.count != 2 || get.busyNS != 50 || get.selfNS != 50 {
		t.Errorf("get row %+v", get)
	}
	if client.busyNS != 100 || client.selfNS != 50 {
		t.Errorf("client row %+v", client)
	}
}
