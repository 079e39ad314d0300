package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Record is a figure's result in its checked-in form (the files under
// bench/): its bytes, a human rendering, and a fail-closed self check
// that judges the run on its own — invariant violations, the KV
// recovery replay, the elastic healing story.
type Record interface {
	// Encode renders the record file.
	Encode() ([]byte, error)
	// Decode is the inverse of Encode.
	Decode(data []byte) error
	// Text renders the record as a table.
	Text() string
	// Check fails if the run is broken, with or without a baseline.
	Check() error
}

// GatedRecord is a Record that can be judged against a baseline record
// of the same figure.
type GatedRecord interface {
	Record
	// Baseline returns the figure's fixed gate and the record's points
	// reduced to what the comparator needs.
	Baseline() (Gate, []GatePoint)
}

// Gate is how a figure's fresh record is judged against a baseline. The
// settings are fixed per figure, next to each report type.
type Gate struct {
	// Metric names the gated value in messages.
	Metric string
	// HigherIsBetter orients the ratio so that larger always means
	// worse: base/fresh for throughputs, fresh/base for latencies.
	HigherIsBetter bool
	// Tolerance is the largest oriented ratio that passes.
	Tolerance float64
	// Normalize divides every ratio by the lower median of the gated
	// ratios first. That absorbs a uniform hardware shift between the
	// machine that recorded the baseline and the one running the gate,
	// so only regressions concentrated in some points trip it. The lower
	// median keeps a single regressed point from defining the norm it
	// is judged against.
	Normalize bool
	// MinSamples excludes fresh points with fewer samples from the
	// ratio gate: their tail quantile is noise.
	MinSamples uint64
}

// GatePoint is one record point reduced for comparison.
type GatePoint struct {
	Key     string
	Value   float64
	Samples uint64
}

// CompareRecords judges fresh against base with fresh's gate and returns
// the number of ratio-gated points. Fresh points without a baseline
// match are ignored (new points are not regressions), but zero matches
// is an error. Baseline points with a non-positive value cannot anchor a
// ratio and are skipped; a higher-is-better fresh value of zero against
// a positive base is an infinite regression and fails.
func CompareRecords(fresh, base GatedRecord) (int, error) {
	g, fpts := fresh.Baseline()
	_, bpts := base.Baseline()
	baseVal := make(map[string]float64, len(bpts))
	for _, p := range bpts {
		baseVal[p.Key] = p.Value
	}
	type matched struct {
		key   string
		ratio float64 // oriented: larger is worse
	}
	var ms []matched
	common := 0
	for _, p := range fpts {
		b, ok := baseVal[p.Key]
		if !ok {
			continue
		}
		common++
		if b <= 0 || p.Samples < g.MinSamples {
			continue
		}
		r := p.Value / b
		if g.HigherIsBetter {
			r = b / p.Value
		}
		ms = append(ms, matched{p.Key, r})
	}
	if common == 0 {
		return 0, errors.New("no points in common with the baseline")
	}
	if len(ms) == 0 {
		// Every common point is below the sample floor.
		return 0, nil
	}
	norm := 1.0
	if g.Normalize {
		ratios := make([]float64, len(ms))
		for i, m := range ms {
			ratios[i] = m.ratio
		}
		sort.Float64s(ratios)
		norm = ratios[(len(ratios)-1)/2]
		if norm == 0 || math.IsInf(norm, 1) {
			return len(ms), fmt.Errorf("median %s ratio is %v", g.Metric, norm)
		}
	}
	var fails []string
	for _, m := range ms {
		r := m.ratio / norm // the ratio the bound applies to
		switch {
		case r <= g.Tolerance:
		case g.Normalize:
			fails = append(fails, fmt.Sprintf("%s: %.2fx worse than baseline (raw %.2fx / norm %.2fx)", m.key, r, m.ratio, norm))
		default:
			fails = append(fails, fmt.Sprintf("%s: %.2fx worse than baseline", m.key, r))
		}
	}
	if len(fails) > 0 {
		return len(ms), fmt.Errorf("%d/%d points regressed on %s by more than %.2fx:\n  %s",
			len(fails), len(ms), g.Metric, g.Tolerance, strings.Join(fails, "\n  "))
	}
	return len(ms), nil
}

// encodeJSON renders a whole-object record as indented JSON.
func encodeJSON(r any) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	return append(out, '\n'), err
}

// decodeJSON is the inverse of encodeJSON; kind must then read want.
func decodeJSON(data []byte, r any, kind *string, want string) error {
	if err := json.Unmarshal(data, r); err != nil {
		return err
	}
	if *kind != want {
		return fmt.Errorf("record kind %q, want %q", *kind, want)
	}
	return nil
}

// encodeJSONL renders a header object, then one line per point.
func encodeJSONL[P any](header any, points []P) ([]byte, error) {
	var b bytes.Buffer
	h, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	b.Write(h)
	b.WriteByte('\n')
	for i := range points {
		line, err := json.Marshal(&points[i])
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// decodeJSONL is the inverse of encodeJSONL: the first line fills header,
// every further non-blank line is appended to points.
func decodeJSONL[P any](data []byte, header any, points *[]P) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24) // rows grow the buffer as they need, up to 16 MiB
	if !sc.Scan() {
		return errors.New("harness: empty JSONL record")
	}
	if err := json.Unmarshal(sc.Bytes(), header); err != nil {
		return fmt.Errorf("harness: JSONL header: %w", err)
	}
	*points = nil
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var p P
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("harness: JSONL row: %w", err)
		}
		*points = append(*points, p)
	}
	return sc.Err()
}

// CheckResults fails on every result whose scenario invariant check
// failed: the generic figures' fail-closed check, and the invariant half
// of the record checks.
func CheckResults(rs []Result) error {
	var fails []string
	for _, r := range rs {
		if r.InvariantViolation != "" {
			fails = append(fails, fmt.Sprintf("%s %s t=%d: invariant violation: %s",
				r.Scenario, r.Engine, r.Threads, r.InvariantViolation))
		}
	}
	if len(fails) > 0 {
		return errors.New(strings.Join(fails, "\n  "))
	}
	return nil
}
