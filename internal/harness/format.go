package harness

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hcf/internal/core"
	"hcf/internal/htm"
)

// seriesKey identifies one line of a throughput chart: engine name plus, if
// several scenarios were merged into one figure (the ablations), the
// scenario.
func seriesKey(r Result, multiScenario bool) string {
	if multiScenario {
		return r.Engine + " " + r.Scenario
	}
	return r.Engine
}

// FormatThroughputTable renders throughput (ops per million cycles) as a
// text table with one row per thread count and one column per engine — the
// data behind the paper's line charts.
func FormatThroughputTable(results []Result) string {
	scenarios := map[string]bool{}
	for _, r := range results {
		scenarios[r.Scenario] = true
	}
	multi := len(scenarios) > 1

	threads := []int{}
	seenT := map[int]bool{}
	series := []string{}
	seenS := map[string]bool{}
	cell := map[string]map[int]float64{}
	for _, r := range results {
		if !seenT[r.Threads] {
			seenT[r.Threads] = true
			threads = append(threads, r.Threads)
		}
		k := seriesKey(r, multi)
		if !seenS[k] {
			seenS[k] = true
			series = append(series, k)
			cell[k] = map[int]float64{}
		}
		cell[k][r.Threads] = r.Throughput
	}
	sort.Ints(threads)

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteByte('\n')
	for _, t := range threads {
		fmt.Fprintf(&b, "%-8d", t)
		for _, s := range series {
			fmt.Fprintf(&b, " %14.1f", cell[s][t])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatCSV renders results as CSV (scenario, engine, threads, throughput,
// plus behavioural counters) for external plotting.
func FormatCSV(results []Result) string {
	var b strings.Builder
	b.WriteString("scenario,engine,threads,ops,cycles,throughput," +
		"lock_acqs,aux_acqs,combiner_sessions,combined_ops," +
		"htm_started,htm_commits,htm_aborts,l1_miss_rate\n")
	for _, r := range results {
		m := &r.Metrics
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%.2f,%d,%d,%d,%d,%d,%d,%d,%.4f\n",
			r.Scenario, r.Engine, r.Threads, r.Ops, r.Cycles, r.Throughput,
			m.LockAcquisitions, m.AuxAcquisitions, m.CombinerSessions,
			m.CombinedOps, m.HTM.Started, m.HTM.Commits, m.HTM.TotalAborts(),
			r.Mem.MissRate())
	}
	return b.String()
}

// ResultRecord is the machine-readable (JSON) form of one Result: flat
// snake_case fields plus derived rates, so external tooling needs no
// knowledge of internal types.
type ResultRecord struct {
	Scenario           string              `json:"scenario"`
	Engine             string              `json:"engine"`
	Threads            int                 `json:"threads"`
	Ops                uint64              `json:"ops"`
	Cycles             int64               `json:"cycles"`
	Throughput         float64             `json:"throughput"`
	LockAcquisitions   uint64              `json:"lock_acquisitions"`
	AuxAcquisitions    uint64              `json:"aux_acquisitions"`
	CombinerSessions   uint64              `json:"combiner_sessions"`
	CombinedOps        uint64              `json:"combined_ops"`
	CombiningDegree    float64             `json:"combining_degree"`
	HTMStarted         uint64              `json:"htm_started"`
	HTMCommits         uint64              `json:"htm_commits"`
	HTMAborts          map[string]uint64   `json:"htm_aborts,omitempty"`
	Loads              uint64              `json:"loads"`
	Stores             uint64              `json:"stores"`
	L1MissRate         float64             `json:"l1_miss_rate"`
	CoherenceMisses    uint64              `json:"coherence_misses"`
	RemoteMisses       uint64              `json:"remote_misses"`
	PhaseByClass       []map[string]uint64 `json:"phase_by_class,omitempty"`
	InvariantViolation string              `json:"invariant_violation,omitempty"`
}

// RecordOf converts a Result to its machine-readable record.
func RecordOf(r Result) ResultRecord {
	m := &r.Metrics
	rec := ResultRecord{
		Scenario:         r.Scenario,
		Engine:           r.Engine,
		Threads:          r.Threads,
		Ops:              r.Ops,
		Cycles:           r.Cycles,
		Throughput:       r.Throughput,
		LockAcquisitions: m.LockAcquisitions,
		AuxAcquisitions:  m.AuxAcquisitions,
		CombinerSessions: m.CombinerSessions,
		CombinedOps:      m.CombinedOps,
		CombiningDegree:  m.CombiningDegree(),
		HTMStarted:       m.HTM.Started,
		HTMCommits:       m.HTM.Commits,
		Loads:            r.Mem.Loads,
		Stores:           r.Mem.Stores,
		L1MissRate:       r.Mem.MissRate(),
		CoherenceMisses:  r.Mem.CoherenceMisses,
		RemoteMisses:     r.Mem.RemoteMisses,

		InvariantViolation: r.InvariantViolation,
	}
	for reason := htm.ReasonConflict; reason < htm.NumReasons; reason++ {
		if n := m.HTM.Aborts[reason]; n > 0 {
			if rec.HTMAborts == nil {
				rec.HTMAborts = make(map[string]uint64)
			}
			rec.HTMAborts[reason.String()] = n
		}
	}
	for _, phases := range r.PhaseByClass {
		row := make(map[string]uint64, core.NumPhases)
		for p := 0; p < core.NumPhases; p++ {
			row[core.Phase(p).String()] = phases[p]
		}
		rec.PhaseByClass = append(rec.PhaseByClass, row)
	}
	return rec
}

// FormatJSON renders one result as an indented JSON object.
func FormatJSON(r Result) (string, error) {
	out, err := json.MarshalIndent(RecordOf(r), "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// FormatJSONL renders results as JSON Lines: one compact record per
// (scenario, engine, threads) cell.
func FormatJSONL(results []Result) (string, error) {
	var b strings.Builder
	for _, r := range results {
		out, err := json.Marshal(RecordOf(r))
		if err != nil {
			return "", err
		}
		b.Write(out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// classGroup maps the hash-table classes onto Figure 3's three panels.
type classGroup struct {
	label   string
	classes []int
}

// FormatPhaseTable renders HCF's per-phase completion percentages — Figure
// 3's three panels: all operations, Inserts only, Finds+Removes only (for
// the hash-table class layout: 0 find, 1 insert, 2 remove). For other
// scenarios every class is shown separately.
func FormatPhaseTable(results []Result, hashTableLayout bool) string {
	var groups []classGroup
	if hashTableLayout {
		groups = []classGroup{
			{"all ops", []int{0, 1, 2}},
			{"insert", []int{1}},
			{"find+remove", []int{0, 2}},
		}
	}
	var b strings.Builder
	for _, r := range results {
		if r.PhaseByClass == nil {
			continue
		}
		gs := groups
		if gs == nil {
			for c := range r.PhaseByClass {
				gs = append(gs, classGroup{fmt.Sprintf("class %d", c), []int{c}})
			}
		}
		fmt.Fprintf(&b, "threads=%d\n", r.Threads)
		fmt.Fprintf(&b, "  %-12s %12s %12s %12s %12s\n",
			"ops", "TryPrivate", "TryVisible", "TryCombining", "UnderLock")
		for _, g := range gs {
			var sum [core.NumPhases]uint64
			var total uint64
			for _, c := range g.classes {
				if c < len(r.PhaseByClass) {
					for p := 0; p < core.NumPhases; p++ {
						sum[p] += r.PhaseByClass[c][p]
						total += r.PhaseByClass[c][p]
					}
				}
			}
			fmt.Fprintf(&b, "  %-12s", g.label)
			for p := 0; p < core.NumPhases; p++ {
				pct := 0.0
				if total > 0 {
					pct = 100 * float64(sum[p]) / float64(total)
				}
				fmt.Fprintf(&b, " %11.1f%%", pct)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatStatsTable renders the §3.3 performance statistics: combining
// degree, lock acquisitions per operation, HTM commit ratio, and L1-D miss
// rate.
func FormatStatsTable(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %12s %12s %12s %12s %12s\n",
		"threads", "engine", "thrpt", "comb.degree", "lock/op", "commit%", "L1miss%")
	for _, r := range results {
		m := &r.Metrics
		lockPerOp := 0.0
		if r.Ops > 0 {
			lockPerOp = float64(m.LockAcquisitions) / float64(r.Ops)
		}
		commitPct := 0.0
		if m.HTM.Started > 0 {
			commitPct = 100 * float64(m.HTM.Commits) / float64(m.HTM.Started)
		}
		fmt.Fprintf(&b, "%-8d %-8s %12.1f %12.2f %12.3f %12.1f %12.2f\n",
			r.Threads, r.Engine, r.Throughput, m.CombiningDegree(), lockPerOp,
			commitPct, 100*r.Mem.MissRate())
	}
	return b.String()
}

// FormatFigure renders a figure's results according to its kind.
func FormatFigure(f Figure, results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s): %s\n", f.ID, f.Ref, f.Title)
	fmt.Fprintf(&b, "   paper shape: %s\n\n", f.Expect)
	switch f.Kind {
	case KindPhases:
		b.WriteString(FormatPhaseTable(results, strings.HasPrefix(f.Scenario.Name, "hashtable")))
	case KindStats:
		b.WriteString(FormatStatsTable(results))
	default:
		b.WriteString(FormatThroughputTable(results))
	}
	for _, r := range results {
		if r.InvariantViolation != "" {
			fmt.Fprintf(&b, "!! INVARIANT VIOLATION [%s %s t=%d]: %s\n",
				r.Scenario, r.Engine, r.Threads, r.InvariantViolation)
		}
	}
	return b.String()
}
