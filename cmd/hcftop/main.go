// Command hcftop is a terminal dashboard over the live introspection
// server (hcf/serve): it polls the /debug endpoints and renders the run's
// vital signs — sojourn latency per class through the deep tail, SLO
// burn-rate state, queue backlog, and per-shard activity — refreshing in
// place like top(1).
//
// Usage:
//
//	hcftop                              # watch http://127.0.0.1:7070
//	hcftop -addr 127.0.0.1:7654         # watch an hcfbench -serve run
//	hcftop -once                        # one snapshot, no screen control
//	hcftop -plain -interval 5s          # log-friendly append-only output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hcf/internal/harness"
	"hcf/internal/metrics"
	"hcf/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hcftop:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hcftop", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7070", "introspection server host:port")
		interval = fs.Duration("interval", time.Second, "refresh interval")
		once     = fs.Bool("once", false, "print one snapshot and exit")
		plain    = fs.Bool("plain", false, "no screen clearing; append snapshots (implies by -once)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		snap, err := fetch(client, base)
		if err != nil {
			return err
		}
		if !*plain && !*once {
			fmt.Fprint(w, "\033[2J\033[H") // clear screen, home cursor
		}
		fmt.Fprint(w, render(snap))
		if *once {
			return nil
		}
		time.Sleep(*interval)
	}
}

// snapshot is one poll of the introspection endpoints. Endpoints that are
// not configured on the server (404) leave their field zero.
type snapshot struct {
	Vars    *serve.Vars
	Sojourn []harness.ClassSojourn
	SLO     *metrics.SLOSnapshot
	Shards  serve.Shards
	When    time.Time
}

// getJSON decodes endpoint ep into out; a 404 is not an error (the
// provider simply is not configured), anything else is.
func getJSON(client *http.Client, base, ep string, out any) error {
	resp, err := client.Get(base + ep)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", ep, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func fetch(client *http.Client, base string) (*snapshot, error) {
	s := &snapshot{When: time.Now()}
	var v serve.Vars
	if err := getJSON(client, base, "/debug/vars", &v); err != nil {
		return nil, err
	}
	s.Vars = &v
	if err := getJSON(client, base, "/debug/sojourn", &s.Sojourn); err != nil {
		return nil, err
	}
	var slo metrics.SLOSnapshot
	if err := getJSON(client, base, "/debug/slo", &slo); err != nil {
		return nil, err
	}
	if len(slo.Objectives) > 0 {
		s.SLO = &slo
	}
	if err := getJSON(client, base, "/debug/shards", &s.Shards); err != nil {
		return nil, err
	}
	return s, nil
}

// render lays the snapshot out as the dashboard text.
func render(s *snapshot) string {
	var b strings.Builder
	v := s.Vars
	fmt.Fprintf(&b, "hcftop  %s", s.When.Format("15:04:05"))
	if v != nil {
		if v.Scenario != "" {
			fmt.Fprintf(&b, "  %s", v.Scenario)
		}
		if v.Engine != "" {
			fmt.Fprintf(&b, "  engine=%s threads=%d", v.Engine, v.Threads)
		}
		fmt.Fprintf(&b, "  now=%d backlog=%d", v.Now, v.Backlog)
		if v.Trace != nil {
			fmt.Fprintf(&b, "  trace=%d/%d dropped=%d", v.Trace.Retained, v.Trace.Starts, v.Trace.Dropped)
		}
	}
	b.WriteByte('\n')

	if s.SLO != nil {
		b.WriteString("\nSLO:\n")
		fmt.Fprintf(&b, "  %-10s %10s %12s %10s %10s %10s  %s\n",
			"class", "threshold", "compliance", "budget", "fast", "slow", "state")
		for _, o := range s.SLO.Objectives {
			class := o.Class
			if class == "" {
				class = "(all)"
			}
			fmt.Fprintf(&b, "  %-10s %10d %11.4f%% %9.1f%% %10.2f %10.2f  %s\n",
				class, o.Threshold, 100*o.Compliance, 100*o.BudgetUsed,
				o.FastBurn, o.SlowBurn, strings.ToUpper(o.State))
		}
		if n := len(s.SLO.Verdicts); n > 0 {
			last := s.SLO.Verdicts[n-1]
			fmt.Fprintf(&b, "  last verdict: @%d %s -> %s (%s)\n", last.Time, last.From, last.To, last.Reason)
		}
	}

	if len(s.Sojourn) > 0 {
		b.WriteString("\nsojourn latency:\n")
		fmt.Fprintf(&b, "  %-10s %10s %8s %8s %8s %8s %8s %8s\n",
			"class", "count", "mean", "p50", "p99", "p999", "p9999", "max")
		for _, row := range s.Sojourn {
			fmt.Fprintf(&b, "  %-10s %10d %8.0f %8d %8d %8d %8d %8d\n",
				row.Class, row.Count, row.Mean, row.P50, row.P99, row.P999, row.P9999, row.Max)
		}
	}

	if len(s.Shards.Counters) > 0 || s.Shards.Topology != nil {
		b.WriteString("\nshards:\n")
		if t := s.Shards.Topology; t != nil {
			fmt.Fprintf(&b, "  topology: epoch=%d active=%d/%d splits=%d merges=%d moved=%d reroutes=%d\n",
				t.Ring.Epoch, t.Ring.Active, t.Provisioned, t.Splits, t.Merges, t.MovedKeys, t.Reroutes)
		}
		if len(s.Shards.Counters) > 0 {
			fmt.Fprintf(&b, "  %-8s %10s %10s %10s %10s %10s\n",
				"shard", "ops", "commits", "aborts", "sessions", "combined")
			for _, g := range s.Shards.Counters {
				fmt.Fprintf(&b, "  %-8s %10d %10d %10d %10d %10d\n",
					g.Group, g.Ops, g.Commits, g.Aborts, g.CombinerSessions, g.CombinedOps)
			}
		}
	}
	return b.String()
}
