package harness

import (
	"reflect"
	"testing"

	"hcf/internal/trace"
)

// TestTracedStreamDeterministic runs every engine twice with the same
// seed and requires the merged span stream — every event, including
// span ids, abort attribution, and help edges — to be bit-identical.
func TestTracedStreamDeterministic(t *testing.T) {
	sc := HashTableScenario(40, 1024)
	cfg := Config{Horizon: 8_000, Seed: 7}
	for _, name := range EngineNames {
		pt1, err := RunPointWith(sc, name, 4, cfg, Probes{Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pt2, err := RunPointWith(sc, name, 4, cfg, Probes{Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(pt1.Result, pt2.Result) {
			t.Errorf("%s: results differ across same-seed runs:\n%+v\n%+v", name, pt1.Result, pt2.Result)
		}
		ev1, ev2 := pt1.Trace.Events(), pt2.Trace.Events()
		if len(ev1) == 0 {
			t.Errorf("%s: no events traced", name)
		}
		if !reflect.DeepEqual(ev1, ev2) {
			for i := range ev1 {
				if i >= len(ev2) || ev1[i] != ev2[i] {
					t.Fatalf("%s: event streams diverge at %d:\n%+v\n%+v", name, i, ev1[i], ev2[i])
				}
			}
			t.Fatalf("%s: event stream lengths differ: %d vs %d", name, len(ev1), len(ev2))
		}
	}
}

// TestTracedSpansReconstruct sanity-checks the span pipeline end-to-end
// on the HCF engine: spans reconstruct, stats add up, and help edges pair
// with helped spans.
func TestTracedSpansReconstruct(t *testing.T) {
	sc := HashTableScenario(40, 1024)
	pt, err := RunPointWith(sc, "HCF", 6, Config{Horizon: 15_000, Seed: 1}, Probes{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	spans := trace.BuildSpans(pt.Trace.Events())
	st := trace.ComputeSpanStats(spans)
	if st.Spans == 0 || st.Spans != uint64(len(spans)) {
		t.Fatalf("span count mismatch: %d vs %d", st.Spans, len(spans))
	}
	if st.Incomplete != 0 {
		t.Errorf("%d incomplete spans with an unbounded collector", st.Incomplete)
	}
	if st.Self+st.Helped != st.Spans {
		t.Errorf("self %d + helped %d != spans %d", st.Self, st.Helped, st.Spans)
	}
	if st.Helped != st.HelpEdges {
		t.Errorf("helped spans %d != help edges %d", st.Helped, st.HelpEdges)
	}
	// Every helped span's helper/span pair must point at a real span.
	byID := map[uint64]bool{}
	for _, sp := range spans {
		byID[sp.ID] = true
	}
	for _, sp := range spans {
		if sp.Helped && sp.HelperSpan != 0 && !byID[sp.HelperSpan] {
			t.Errorf("span %x helped by unknown span %x", sp.ID, sp.HelperSpan)
		}
		for _, h := range sp.Helps {
			if !byID[h.PeerSpan] {
				t.Errorf("span %x helped unknown span %x", sp.ID, h.PeerSpan)
			}
		}
	}
}
