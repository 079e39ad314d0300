package harness

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcf/internal/memsim"
)

// TestScheduleFingerprints pins the simulated results of schedules the
// default-schedule golden files (TestGoldenResults) never reach: cost jitter,
// forced preemptions and priority jitter, each on the paper's hash table,
// priority queue and AVL workloads at 36 threads for all six engines, plus
// one 72-thread two-socket point. A run is fingerprinted by its ops, cycles
// and a hash of its memory counters and engine metrics. Host-side scheduler
// work must leave every line unchanged.
func TestScheduleFingerprints(t *testing.T) {
	variants := []struct {
		name   string
		jitter int64
		ex     memsim.ExploreConfig
	}{
		{"jitter20", 20, memsim.ExploreConfig{}},
		{"preempt48", 0, memsim.ExploreConfig{Seed: 7, PreemptBudget: 48}},
		{"class2", 0, memsim.ExploreConfig{Seed: 7, JitterClass: 2}},
	}
	var got strings.Builder
	line := func(label string, r Result) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v|%+v", r.Mem, r.Metrics)
		fmt.Fprintf(&got, "%s ops=%d cycles=%d state=%016x\n", label, r.Ops, r.Cycles, h.Sum64())
	}
	for _, id := range []string{"2c", "pqueue", "5a"} {
		fig, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			cfg := Config{Horizon: 20_000, Seed: 1, Cost: fig.Cost}
			cfg.Cost.JitterPct = v.jitter
			for _, name := range EngineNames {
				r, err := runExploredPoint(fig.Scenario, name, 36, cfg, v.ex)
				if err != nil {
					t.Fatal(err)
				}
				line(fmt.Sprintf("%s %s %s", id, v.name, name), r)
			}
		}
	}
	fig, err := FigureByID("2c")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunPoint(fig.Scenario, "HCF", 72, Config{Horizon: 20_000, Seed: 1, Cost: memsim.TwoSocketCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	line("2c twosocket72 HCF", r)

	want, err := os.ReadFile(filepath.Join("testdata", "golden_fingerprints.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("schedule fingerprints diverged from testdata/golden_fingerprints.txt;\ngot:\n%s", got.String())
	}
}
