//go:build ignore

// ab.go summarizes the runs bench/ab.sh collects. It reads one run per
// line on standard input:
//
//	workload \t side \t pair \t seed \t exit status \t wall ms \t
//	parallelism before \t parallelism after \t result line
//
// where side is "parent" or "change", the parallelism readings are
// harness.EffectiveParallelism's just before and just after the run,
// and the result line is perfbench's last line. It prints every run,
// then per workload how many pairs read one parallelism regime
// throughout, per end-to-end metric of BENCHMARK.json each side's median
// and quartiles, the pairs CHANGE won and the median per-pair ratio, and
// a bench/TRAJECTORY.jsonl-shaped line. With -workloads it only lists
// BENCHMARK.json's workloads; with -parallelism it prints one reading.
//
//	go run bench/ab.go -benchmark BENCHMARK.json -workloads
//	go run bench/ab.go -parallelism
//	go run bench/ab.go -benchmark BENCHMARK.json [-seconds S ...] < runs.tsv
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"hcf/internal/harness"
)

type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// point is one workload's entry in a bench/TRAJECTORY.jsonl line; each
// side maps metric names to medians, and name_q1/name_q3 to quartiles.
type point struct {
	Workload string          `json:"workload"`
	Seeds    string          `json:"seeds"`
	Pairs    int             `json:"pairs"`
	Parent   json.RawMessage `json:"parent"`
	Change   json.RawMessage `json:"change"`
}

// pair is one seed's parent and change runs; either may be missing.
type pair [2]*run

// run is one perfbench invocation; metrics is empty when it printed no
// result line.
type run struct {
	workload, side string
	pair           int
	seed           uint64
	status         int
	wallMS         int64
	par            [2]float64 // effective parallelism before and after
	correct        bool
	failed         uint64
	metrics        map[string]float64
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration")
	list := flag.Bool("workloads", false, "print the declared workloads and exit")
	probe := flag.Bool("parallelism", false, "print the host's effective parallelism and exit")
	seconds := flag.String("seconds", "", "seconds per run, for the trajectory line")
	parent := flag.String("parent", "", "parent commit, for the trajectory line")
	change := flag.String("change", "", "change commit, for the trajectory line")
	subject := flag.String("subject", "", "the change's subject, for the trajectory line")
	flag.Parse()
	if *probe {
		fmt.Printf("%.2f\n", harness.EffectiveParallelism())
		return
	}
	var b benchmark
	raw, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ab: %v\n", err)
		os.Exit(1)
	}
	if *list {
		for _, w := range b.Workloads {
			fmt.Println(w.Name)
		}
		return
	}
	runs, err := readRuns(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ab: %v\n", err)
		os.Exit(1)
	}
	bad := printRuns(os.Stdout, b, runs)
	traj := summarize(os.Stdout, b, runs)
	line, _ := json.Marshal(struct {
		Change string  `json:"change"`
		Source string  `json:"source"`
		Runs   string  `json:"runs"`
		Points []point `json:"points"`
	}{*subject, fmt.Sprintf("bench/ab.sh %.12s %.12s", *parent, *change),
		fmt.Sprintf("perfbench %s s, pairs alternating which side runs first; medians with quartiles (_q1/_q3)", *seconds),
		traj})
	fmt.Printf("\ntrajectory (add \"pr\"):\n%s\n", line)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "ab: %d runs failed or were incorrect\n", bad)
		os.Exit(1)
	}
}

func readRuns(r io.Reader) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), "\t", 9)
		if len(f) != 9 {
			return nil, fmt.Errorf("malformed run line %q", sc.Text())
		}
		var x run
		var err error
		x.workload, x.side = f[0], f[1]
		if x.pair, err = strconv.Atoi(f[2]); err == nil {
			if x.seed, err = strconv.ParseUint(f[3], 10, 64); err == nil {
				if x.status, err = strconv.Atoi(f[4]); err == nil {
					if x.wallMS, err = strconv.ParseInt(f[5], 10, 64); err == nil {
						if x.par[0], err = strconv.ParseFloat(f[6], 64); err == nil {
							x.par[1], err = strconv.ParseFloat(f[7], 64)
						}
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("run line %q: %v", sc.Text(), err)
		}
		var res struct {
			Correct bool   `json:"correct"`
			Failed  uint64 `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		x.metrics = map[string]float64{}
		if json.Unmarshal([]byte(f[8]), &res) == nil {
			x.correct, x.failed = res.Correct, res.Failed
			for k, v := range res.Metrics {
				x.metrics[k] = v.Value
			}
		}
		runs = append(runs, x)
	}
	return runs, sc.Err()
}

// printRuns lists every run and returns how many failed: a nonzero exit,
// no result line, an incorrect result or failed operations.
func printRuns(w io.Writer, b benchmark, runs []run) (bad int) {
	fmt.Fprintf(w, "%-12s %-6s %4s %6s %4s %9s %9s %7s %6s", "workload", "side", "pair", "seed", "exit", "wall_ms", "cpus", "correct", "failed")
	for _, m := range b.EndToEnd {
		fmt.Fprintf(w, " %12s", m.Name)
	}
	fmt.Fprintln(w)
	for _, x := range runs {
		fmt.Fprintf(w, "%-12s %-6s %4d %6d %4d %9d %4.2f>%4.2f %7v %6d", x.workload, x.side, x.pair, x.seed, x.status, x.wallMS, x.par[0], x.par[1], x.correct, x.failed)
		for _, m := range b.EndToEnd {
			if v, ok := x.metrics[m.Name]; ok {
				fmt.Fprintf(w, " %12.4g", v)
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
		if x.status != 0 || !x.correct || x.failed > 0 {
			bad++
		}
	}
	return bad
}

// summarize prints each workload's per-metric comparison over the pairs
// whose two runs both reported the metric, and returns the trajectory
// points.
func summarize(w io.Writer, b benchmark, runs []run) []point {
	var order []string
	byWorkload := map[string]map[int]pair{}
	for i := range runs {
		x := &runs[i]
		if byWorkload[x.workload] == nil {
			byWorkload[x.workload] = map[int]pair{}
			order = append(order, x.workload)
		}
		p := byWorkload[x.workload][x.pair]
		if x.side == "change" {
			p[1] = x
		} else {
			p[0] = x
		}
		byWorkload[x.workload][x.pair] = p
	}
	var points []point
	for _, wl := range order {
		pairs := byWorkload[wl]
		var ids []int
		for id := range pairs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintf(w, "\n%s: %d pairs, seeds %d-%d\n", wl, len(ids), pairs[ids[0]].seed(), pairs[ids[len(ids)-1]].seed())
		fmt.Fprintf(w, "  regime: %s\n", regimes(pairs, ids))
		fmt.Fprintf(w, "  %-14s %-6s %30s %30s %6s %8s %15s\n", "metric", "unit", "parent median (q1-q3)", "change median (q1-q3)", "wins", "ratio", "(min-max)")
		var sides [2]strings.Builder
		for _, m := range b.EndToEnd {
			var pv, cv, ratios []float64
			wins := 0
			for _, id := range ids {
				p, c := pairs[id][0], pairs[id][1]
				if p == nil || c == nil {
					continue
				}
				a, okA := p.metrics[m.Name]
				z, okZ := c.metrics[m.Name]
				if !okA || !okZ {
					continue
				}
				pv, cv = append(pv, a), append(cv, z)
				if a != 0 {
					ratios = append(ratios, z/a)
				}
				if (m.Better == "higher" && z > a) || (m.Better == "lower" && z < a) {
					wins++
				}
			}
			if len(pv) == 0 {
				continue
			}
			pq, cq := quartiles(pv), quartiles(cv)
			rr := "-"
			if len(ratios) > 0 {
				sort.Float64s(ratios)
				rr = fmt.Sprintf("(%.3f-%.3f)", ratios[0], ratios[len(ratios)-1])
			}
			fmt.Fprintf(w, "  %-14s %-6s %30s %30s %3d/%-2d %7.3fx %15s\n", m.Name, m.Unit,
				fmt.Sprintf("%.4g (%.4g-%.4g)", pq[1], pq[0], pq[2]),
				fmt.Sprintf("%.4g (%.4g-%.4g)", cq[1], cq[0], cq[2]),
				wins, len(pv), quartiles(ratios)[1], rr)
			for s, q := range [2][3]float64{pq, cq} {
				sep := ","
				if sides[s].Len() == 0 {
					sep = "{"
				}
				fmt.Fprintf(&sides[s], "%s%q:%s,%q:%s,%q:%s", sep, m.Name, num(q[1]),
					m.Name+"_q1", num(q[0]), m.Name+"_q3", num(q[2]))
			}
		}
		points = append(points, point{
			Workload: wl,
			Seeds:    fmt.Sprintf("%d-%d", pairs[ids[0]].seed(), pairs[ids[len(ids)-1]].seed()),
			Pairs:    len(ids),
			Parent:   json.RawMessage(sides[0].String() + "}"),
			Change:   json.RawMessage(sides[1].String() + "}"),
		})
	}
	return points
}

// regimes says how many of the pairs read one parallelism regime
// (harness.Regime at this process's GOMAXPROCS, perfbench's default)
// in all their readings, and which: only their comparisons are between
// like machines.
func regimes(pairs map[int]pair, ids []int) string {
	same := map[int]int{}
	mixed := 0
	for _, id := range ids {
		r := 0
		for _, x := range pairs[id] {
			if x == nil {
				continue
			}
			for _, p := range x.par {
				switch g := harness.Regime(p, runtime.GOMAXPROCS(0)); {
				case r == 0:
					r = g
				case r != g:
					r = -1
				}
			}
		}
		if r > 0 {
			same[r]++
		} else {
			mixed++
		}
	}
	var by []string
	for r := 1; len(by) < len(same); r++ {
		if n, ok := same[r]; ok {
			by = append(by, fmt.Sprintf("%d CPU: %d", r, n))
		}
	}
	return fmt.Sprintf("%d of %d pairs read one parallelism regime throughout (%s), %d mixed",
		len(ids)-mixed, len(ids), strings.Join(by, ", "), mixed)
}

// seed is the pair's seed, read from whichever run the pair has.
func (p pair) seed() uint64 {
	if p[0] != nil {
		return p[0].seed
	}
	return p[1].seed
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolating between order statistics; NaN for an empty v.
func quartiles(v []float64) [3]float64 {
	if len(v) == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// num formats v to four significant digits as a JSON number.
func num(v float64) string {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	b, _ := json.Marshal(r)
	return string(b)
}
