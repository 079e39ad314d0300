package harness

import (
	"strings"
	"testing"

	"hcf/internal/memsim"
)

func smallCfg() Config {
	return Config{Horizon: 30_000, Seed: 42}
}

func TestRunPointBasics(t *testing.T) {
	sc := HashTableScenario(40, 256)
	for _, name := range EngineNames {
		t.Run(name, func(t *testing.T) {
			r, err := RunPoint(sc, name, 4, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			if r.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if r.Throughput <= 0 {
				t.Fatal("non-positive throughput")
			}
			if r.Cycles < 30_000 {
				t.Fatalf("run ended before the horizon: %d", r.Cycles)
			}
			if r.Metrics.Ops != r.Ops {
				t.Fatalf("metrics ops %d != counted ops %d", r.Metrics.Ops, r.Ops)
			}
			if r.InvariantViolation != "" {
				t.Fatalf("invariants violated: %s", r.InvariantViolation)
			}
		})
	}
}

func TestRunPointDeterministic(t *testing.T) {
	sc := AVLScenario(40, 128, 0.9, AVLCombining)
	a, err := RunPoint(sc, "HCF", 6, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPoint(sc, "HCF", 6, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Cycles != b.Cycles || a.Metrics != b.Metrics {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestRunPointSeedChangesRun(t *testing.T) {
	sc := HashTableScenario(40, 256)
	cfg := smallCfg()
	a, _ := RunPoint(sc, "TLE", 4, cfg)
	cfg.Seed = 43
	b, _ := RunPoint(sc, "TLE", 4, cfg)
	if a.Ops == b.Ops && a.Cycles == b.Cycles && a.Metrics == b.Metrics {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRunPointUnknownEngine(t *testing.T) {
	if _, err := RunPoint(HashTableScenario(40, 64), "nope", 2, smallCfg()); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestRunSweepShape(t *testing.T) {
	res, err := RunSweep(StackScenario(64), []string{"Lock", "FC"}, []int{1, 4}, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
}

func TestAllScenariosRunUnderAllEngines(t *testing.T) {
	scenarios := []Scenario{
		HashTableScenario(80, 128),
		AVLScenario(40, 64, 0.9, AVLCombining),
		AVLScenario(0, 64, 0.5, AVLNoCombine),
		AVLScenario(0, 64, 0.9, AVLTwoArrays),
		PQScenario(50, 4096, 256),
		StackScenario(64),
		DequeScenario(64, false),
		DequeScenario(64, true),
	}
	cfg := Config{Horizon: 15_000, Seed: 7}
	for _, sc := range scenarios {
		for _, name := range EngineNames {
			r, err := RunPoint(sc, name, 3, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, name, err)
			}
			if r.Ops == 0 {
				t.Fatalf("%s/%s: no ops", sc.Name, name)
			}
			if r.InvariantViolation != "" {
				t.Fatalf("%s/%s: %s", sc.Name, name, r.InvariantViolation)
			}
		}
	}
}

func TestFigureRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) < 10 {
		t.Fatalf("only %d figures registered", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		if ids[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		ids[f.ID] = true
		if f.Title == "" || f.Ref == "" || f.Expect == "" {
			t.Fatalf("figure %q missing documentation", f.ID)
		}
		if len(f.Engines) == 0 || len(f.Threads) == 0 {
			t.Fatalf("figure %q has empty sweep", f.ID)
		}
	}
	for _, want := range []string{"2a", "2b", "2c", "3", "4", "5a", "5b", "5c"} {
		if !ids[want] {
			t.Fatalf("paper figure %q missing from registry", want)
		}
	}
	if _, err := FigureByID("2a"); err != nil {
		t.Fatal(err)
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure id accepted")
	}
}

func TestRunFigureSmall(t *testing.T) {
	f, err := FigureByID("2c")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink for test speed.
	f.Scenario = HashTableScenario(40, 128)
	f.Engines = []string{"TLE", "HCF"}
	f.Threads = []int{2, 4}
	res, err := RunFigure(f, Config{Horizon: 15_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	out := FormatFigure(f, res)
	if !strings.Contains(out, "TLE") || !strings.Contains(out, "HCF") {
		t.Fatalf("table missing engines:\n%s", out)
	}
}

func TestFormatThroughputTable(t *testing.T) {
	res := []Result{
		{Scenario: "s", Engine: "A", Threads: 1, Throughput: 10},
		{Scenario: "s", Engine: "B", Threads: 1, Throughput: 20},
		{Scenario: "s", Engine: "A", Threads: 2, Throughput: 15},
		{Scenario: "s", Engine: "B", Threads: 2, Throughput: 25},
	}
	out := FormatThroughputTable(res)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table:\n%s", out)
	}
	if !strings.Contains(lines[0], "A") || !strings.Contains(lines[0], "B") {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1") || !strings.Contains(lines[1], "10.0") {
		t.Fatalf("row: %s", lines[1])
	}
}

func TestFormatThroughputTableMultiScenario(t *testing.T) {
	res := []Result{
		{Scenario: "x", Engine: "HCF", Threads: 1, Throughput: 1},
		{Scenario: "y", Engine: "HCF", Threads: 1, Throughput: 2},
	}
	out := FormatThroughputTable(res)
	if !strings.Contains(out, "HCF x") || !strings.Contains(out, "HCF y") {
		t.Fatalf("multi-scenario series not labelled:\n%s", out)
	}
}

func TestFormatCSV(t *testing.T) {
	res := []Result{{Scenario: "s", Engine: "E", Threads: 3, Ops: 10, Cycles: 100, Throughput: 5}}
	out := FormatCSV(res)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "s,E,3,10,100,5.00") {
		t.Fatalf("csv row: %s", lines[1])
	}
}

func TestFormatPhaseTable(t *testing.T) {
	r, err := RunPoint(HashTableScenario(40, 64), "HCF", 6, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatPhaseTable([]Result{r}, true)
	for _, want := range []string{"all ops", "insert", "find+remove", "TryPrivate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("phase table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatStatsTable(t *testing.T) {
	r, err := RunPoint(HashTableScenario(40, 64), "HCF", 6, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatStatsTable([]Result{r})
	if !strings.Contains(out, "comb.degree") || !strings.Contains(out, "HCF") {
		t.Fatalf("stats table:\n%s", out)
	}
}

// TestShapeHCFBeatsLockUnderContention is a coarse sanity check of the
// simulation: on the update-heavy hash table at high thread counts, HCF
// must clearly beat the plain lock.
func TestShapeHCFBeatsLockUnderContention(t *testing.T) {
	cfg := Config{Horizon: 60_000, Seed: 11}
	sc := HashTableScenario(40, 1024)
	lock, err := RunPoint(sc, "Lock", 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hcf, err := RunPoint(sc, "HCF", 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hcf.Throughput <= lock.Throughput {
		t.Fatalf("HCF (%.1f) did not beat Lock (%.1f) at 12 threads",
			hcf.Throughput, lock.Throughput)
	}
}

func TestRunPointRealSmoke(t *testing.T) {
	for _, name := range []string{"Lock", "TLE", "HCF"} {
		r, err := runPointReal(HashTableScenario(40, 128), name, 4, 50, Config{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if r.Ops != 200 {
			t.Fatalf("%s: %+v", name, r)
		}
		if r.InvariantViolation != "" {
			t.Fatalf("%s: %s", name, r.InvariantViolation)
		}
	}
}

func TestSortedListScenarioUnderAllEngines(t *testing.T) {
	sc := SortedListScenario(40, 64)
	for _, name := range EngineNames {
		r, err := RunPoint(sc, name, 3, Config{Horizon: 10_000, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Ops == 0 || r.InvariantViolation != "" {
			t.Fatalf("%s: %+v", name, r)
		}
	}
}

func TestSkipSetAndQueueScenariosSmoke(t *testing.T) {
	for _, sc := range []Scenario{SkipSetScenario(40, 128, 0.9), QueueScenario(50, 64)} {
		for _, name := range []string{"TLE", "FC", "HCF"} {
			r, err := RunPoint(sc, name, 3, Config{Horizon: 10_000, Seed: 4})
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, name, err)
			}
			if r.Ops == 0 || r.InvariantViolation != "" {
				t.Fatalf("%s/%s: %+v", sc.Name, name, r)
			}
		}
	}
}

func TestHashTableBudgetScenarioOverrides(t *testing.T) {
	sc := HashTableBudgetScenario(40, 64, 7, 1, 2)
	env := memsimNewDetForTest(2)
	inst := sc.Setup(env, 1)
	ins := inst.Policies[1] // ClassInsert
	if ins.TryPrivateTrials != 7 || ins.TryVisibleTrials != 1 || ins.TryCombiningTrials != 2 {
		t.Fatalf("budgets not applied: %+v", ins)
	}
}

func memsimNewDetForTest(threads int) *memsim.DetEnv {
	return memsim.NewDet(memsim.DetConfig{Threads: threads})
}

func TestBTreeScenarioUnderAllEngines(t *testing.T) {
	sc := BTreeScenario(40, 128, 0.9)
	for _, name := range EngineNames {
		r, err := RunPoint(sc, name, 3, Config{Horizon: 10_000, Seed: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Ops == 0 || r.InvariantViolation != "" {
			t.Fatalf("%s: %+v", name, r)
		}
	}
}
