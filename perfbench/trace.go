package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share id; parent is the id of the enclosing span (0 = none).
type span struct {
	id, parent uint64
	name       string // the layer call, e.g. "native.MapHandle.Get"
	layer      string // the module the call enters, e.g. "internal/native"
	tid        int    // client goroutine (0 for the driver)
	start, end int64  // ns since the log's epoch
}

// spanID builds a unique id from the round, the client and an index
// within the client's round.
func spanID(round, client, i int) uint64 {
	return uint64(round+1)<<40 | uint64(client+1)<<32 | uint64(i)
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// fork returns an empty log on the same clock, for one goroutine to
// fill without synchronization; merge adds it back once it has joined.
func (l *spanLog) fork() *spanLog { return &spanLog{epoch: l.epoch} }

func (l *spanLog) merge(o *spanLog) { l.spans = append(l.spans, o.spans...) }

// at converts a wall time to the log's nanosecond clock.
func (l *spanLog) at(t time.Time) int64 { return t.Sub(l.epoch).Nanoseconds() }

// record adds one span that started at t0 and ends now.
func (l *spanLog) record(id, parent uint64, name, layer string, tid int, t0 time.Time) {
	l.spans = append(l.spans, span{id, parent, name, layer, tid, l.at(t0), l.at(time.Now())})
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer, name    string
	count          int
	busyNS, selfNS int64
	p50, p99       float64 // µs
}

// table aggregates spans by call: count, busy time (sum of durations),
// self time (busy minus the time covered by child spans) and duration
// percentiles.
func (l *spanLog) table() []layerRow {
	childNS := map[uint64]int64{}
	for _, s := range l.spans {
		if s.parent != 0 {
			childNS[s.parent] += s.end - s.start
		}
	}
	type key struct{ layer, name string }
	durs := map[key][]int64{}
	self := map[key]int64{}
	for _, s := range l.spans {
		k := key{s.layer, s.name}
		d := s.end - s.start
		durs[k] = append(durs[k], d)
		self[k] += d - childNS[s.id]
	}
	rows := make([]layerRow, 0, len(durs))
	for k, ds := range durs {
		slices.Sort(ds)
		var busy int64
		for _, d := range ds {
			busy += d
		}
		rows = append(rows, layerRow{k.layer, k.name, len(ds), busy, self[k],
			quantileNS(ds, 0.50), quantileNS(ds, 0.99)})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].layer != rows[b].layer {
			return rows[a].layer < rows[b].layer
		}
		return rows[a].name < rows[b].name
	})
	return rows
}

func (l *spanLog) printTable(w io.Writer) {
	fmt.Fprintf(w, "  %-18s %-34s %9s %11s %11s %10s %10s\n",
		"layer", "call", "count", "busy_ms", "self_ms", "p50_us", "p99_us")
	for _, r := range l.table() {
		fmt.Fprintf(w, "  %-18s %-34s %9d %11.3f %11.3f %10.3f %10.3f\n",
			r.layer, r.name, r.count, float64(r.busyNS)/1e6, float64(r.selfNS)/1e6, r.p50, r.p99)
	}
}

// maxFileSpans caps the spans written to the Perfetto file; the table
// above aggregates all of them.
const maxFileSpans = 50_000

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writePerfetto writes the spans in the Chrome trace-event JSON format,
// which ui.perfetto.dev opens: one complete ("X") event per span, one
// track per client goroutine, with id and parent in the event args.
func (l *spanLog) writePerfetto(path string, e env) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","metadata":`)
	meta, err := json.Marshal(e)
	if err != nil {
		f.Close()
		return err
	}
	w.Write(meta)
	fmt.Fprint(w, `,"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		if i == maxFileSpans {
			break
		}
		if i > 0 {
			w.WriteByte(',')
		}
		ev := chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
