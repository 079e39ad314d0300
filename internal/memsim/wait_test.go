package memsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// spinner runs the two wait shapes either as the passive primitives or as
// the open-coded loops their doc comments say they are equivalent to.
type spinner struct{ passive bool }

func (s spinner) eq(th *Thread, a Addr, want uint64) {
	if s.passive {
		th.SpinLoadUntilEq(a, want)
		return
	}
	for th.Load(a) != want {
		th.Yield()
	}
}

func (s spinner) either(th *Thread, a1 Addr, want1 uint64, a2 Addr, want2 uint64) int {
	if s.passive {
		return th.SpinUntilEitherEq(a1, want1, a2, want2)
	}
	for {
		if th.Load(a1) == want1 {
			return 0
		}
		if th.Load(a2) == want2 {
			return 1
		}
		th.Yield()
	}
}

// checkWaitsMatchLoops runs body twice on fresh environments — once with
// passive waits, once with open-coded loops — over a span of the given
// number of words, and requires identical per-thread clocks, counters and
// L1 models (tags, versions, LRU uses and ticks), identical wait outcomes
// and identical final memory (words, line metadata and last writers).
func checkWaitsMatchLoops(t *testing.T, cfg DetConfig, words int, body func(th *Thread, s spinner, base Addr, which []int)) {
	t.Helper()
	type outcome struct {
		env   *DetEnv
		base  Addr
		which []int
	}
	run := func(passive bool) outcome {
		e := NewDet(cfg)
		base := e.Alloc(words)
		which := make([]int, cfg.Threads)
		e.Run(func(th *Thread) { body(th, spinner{passive}, base, which) })
		return outcome{e, base, which}
	}
	p, o := run(true), run(false)
	for id := 0; id < cfg.Threads; id++ {
		if p.env.Now(id) != o.env.Now(id) {
			t.Errorf("thread %d clock: passive %d, open-coded %d", id, p.env.Now(id), o.env.Now(id))
		}
		if *p.env.Stats(id) != *o.env.Stats(id) {
			t.Errorf("thread %d stats:\npassive    %+v\nopen-coded %+v", id, *p.env.Stats(id), *o.env.Stats(id))
		}
		if p.which[id] != o.which[id] {
			t.Errorf("thread %d wait outcome: passive %d, open-coded %d", id, p.which[id], o.which[id])
		}
		pc, oc := p.env.caches[id], o.env.caches[id]
		if pc.tick != oc.tick || !slices.Equal(pc.tag, oc.tag) || !slices.Equal(pc.ver, oc.ver) || !slices.Equal(pc.use, oc.use) {
			t.Errorf("thread %d L1 model: passive tick %d, open-coded tick %d (or tags, versions, uses differ)", id, pc.tick, oc.tick)
		}
	}
	for w := 0; w < words; w++ {
		a := p.base + Addr(w)
		if pv, ov := p.env.LoadWord(a), o.env.LoadWord(a); pv != ov {
			t.Errorf("word %d: passive %d, open-coded %d", w, pv, ov)
		}
		if w%WordsPerLine == 0 {
			l := LineOf(a)
			if p.env.LoadMeta(l) != o.env.LoadMeta(l) || p.env.LastWriter(l) != o.env.LastWriter(l) {
				t.Errorf("line %d: passive meta %x writer %d, open-coded meta %x writer %d",
					l, p.env.LoadMeta(l), p.env.LastWriter(l), o.env.LoadMeta(l), o.env.LastWriter(l))
			}
		}
	}
}

// TestPassiveWaitsMatchOpenCodedLoops checks the passive waits against the
// loops they document, in the cases where skipping a waiter's futile steps
// and replaying them later is easiest to get wrong. Exploration stays off:
// it draws at active scheduling points, which the open-coded loops add.
func TestPassiveWaitsMatchOpenCodedLoops(t *testing.T) {
	t.Run("jitter", func(t *testing.T) {
		cost := DefaultCostParams()
		cost.JitterPct = 30
		checkWaitsMatchLoops(t, DetConfig{Threads: 5, Cost: cost, Seed: 11}, 2*WordsPerLine,
			func(th *Thread, s spinner, base Addr, which []int) {
				flag, other := base, base+WordsPerLine
				switch id := th.ID(); id {
				case 0:
					for i := uint64(1); i <= 20; i++ {
						th.Work(int64(40 + 7*i))
						th.Store(flag, i)
					}
					th.Store(other, 1)
				case 4:
					which[id] = s.either(th, flag, 15, other, 1)
					s.eq(th, other, 1)
				default:
					s.eq(th, flag, uint64(5*id))
					th.Add(other+Addr(id), 1)
				}
			})
	})
	t.Run("locked-line", func(t *testing.T) {
		checkWaitsMatchLoops(t, DetConfig{Threads: 4}, 2*WordsPerLine,
			func(th *Thread, s spinner, base Addr, which []int) {
				flag, other := base, base+WordsPerLine
				e := th.Env()
				switch id := th.ID(); id {
				case 0:
					// Hold both lines write-locked across many scheduling
					// points, then publish.
					for _, a := range []Addr{other, flag} {
						l := LineOf(a)
						m := e.LoadMeta(l)
						e.CASMeta(l, m, m|metaLockedBit)
					}
					for i := 0; i < 30; i++ {
						th.Work(25)
					}
					e.StoreWord(flag, 1)
					e.StoreMeta(0, LineOf(flag), MakeMeta(e.TickClock()))
					th.Work(200)
					e.StoreMeta(0, LineOf(other), MakeMeta(e.TickClock()))
				case 3:
					which[id] = s.either(th, flag, 2, other, 0)
				default:
					s.eq(th, flag, 1)
				}
			})
	})
	t.Run("one-way-set", func(t *testing.T) {
		// With one way per set, lines 256 apart evict each other, so every
		// probe of an either-shape waiter misses and its cost depends on
		// each line's last writer: a write access or a failed CAS, which
		// leave the word and version alone, must still wake it. The wait
		// ends on its second line.
		cost := DefaultCostParams()
		cost.L1Ways = 1
		stride := Addr(cost.L1Sets * WordsPerLine)
		checkWaitsMatchLoops(t, DetConfig{Threads: 3, Cost: cost}, int(stride)+WordsPerLine,
			func(th *Thread, s spinner, base Addr, which []int) {
				a1, a2 := base, base+stride
				switch id := th.ID(); id {
				case 0:
					th.Work(300)
					th.Env().Access(0, LineOf(a1), true)
					th.Work(300)
					th.CAS(a2, 99, 5)
					th.Work(300)
					th.Store(a2+1, 4)
					th.Work(300)
					th.CAS(a1, 99, 5)
					th.Work(300)
					th.Store(a2, 7)
				default:
					which[id] = s.either(th, a1, 3, a2, 7)
				}
			})
	})
}

// gapStride puts a gap case's two lines in one L1 set.
var gapStride = Addr(DefaultCostParams().L1Sets * WordsPerLine)

// gapCases are long-gap wait shapes: the writer works gap cycles, during
// which the other threads' waits sleep, then writes the value that ends
// them. a1 and a2 share an L1 set. round is the number of steps in one of
// a sleeper's rounds.
var gapCases = []struct {
	name  string
	ways  int // CostParams.L1Ways; 0 takes the default
	round int
	run   func(th *Thread, s spinner, a1, a2 Addr, writer bool, gap int64) int
}{
	{"eq", 0, 2, func(th *Thread, s spinner, a1, a2 Addr, writer bool, gap int64) int {
		if writer {
			th.Work(gap)
			th.Store(a1, 1)
		} else {
			s.eq(th, a1, 1)
		}
		return 0
	}},
	{"eq-locked-line", 0, 1, func(th *Thread, s spinner, a1, a2 Addr, writer bool, gap int64) int {
		// Rounds are yields alone while the writer holds a1's line locked.
		if e := th.Env(); writer {
			l := LineOf(a1)
			m := e.LoadMeta(l)
			e.CASMeta(l, m, m|metaLockedBit)
			th.Work(gap)
			e.StoreWord(a1, 1)
			e.StoreMeta(th.ID(), l, MakeMeta(e.TickClock()))
		} else {
			s.eq(th, a1, 1)
		}
		return 0
	}},
	{"either", 0, 4, func(th *Thread, s spinner, a1, a2 Addr, writer bool, gap int64) int {
		if writer {
			th.Work(gap)
			th.Store(a2, 1)
			return 0
		}
		return s.either(th, a1, 1, a2, 1)
	}},
	{"either-first-line", 0, 4, func(th *Thread, s spinner, a1, a2 Addr, writer bool, gap int64) int {
		// The writer publishes a1 with no scheduling point in between, so
		// the wait ends on its next probe of a1. A catch-up that stops
		// before a round's a2 probe leaves a2's LRU use where the skipped
		// rounds put it.
		if e := th.Env(); writer {
			th.Work(gap)
			l := LineOf(a1)
			m := e.LoadMeta(l)
			e.CASMeta(l, m, m|metaLockedBit)
			e.StoreWord(a1, 1)
			e.StoreMeta(th.ID(), l, MakeMeta(e.TickClock()))
			return 0
		}
		return s.either(th, a1, 1, a2, 1)
	}},
	{"either-one-way-set", 1, 4, func(th *Thread, s spinner, a1, a2 Addr, writer bool, gap int64) int {
		// With one way, the two probes of a round evict each other and
		// both miss; the writer wrote both lines last, so the misses are
		// coherence misses.
		if writer {
			th.Store(a1, 2)
			th.Store(a2, 2)
			th.Work(gap)
			th.Store(a2, 7)
			return 0
		}
		return s.either(th, a1, 3, a2, 7)
	}},
}

// checkGapCase runs gap case i with the given writer thread through
// checkWaitsMatchLoops.
func checkGapCase(t *testing.T, i int, cost CostParams, threads, writer int, gap int64) {
	t.Helper()
	c := gapCases[i]
	cost.L1Ways = c.ways
	checkWaitsMatchLoops(t, DetConfig{Threads: threads, Cost: cost}, int(gapStride)+WordsPerLine,
		func(th *Thread, s spinner, base Addr, which []int) {
			which[th.ID()] = c.run(th, s, base, base+gapStride, th.ID() == writer, gap)
		})
}

// TestLongGapCatchUpsMatchOpenCodedLoops checks catch-ups that skip whole
// rounds against the open-coded loops, for each gap case on topologies
// with the SMT penalty off (three threads below CoresPerSocket), on for
// some threads (above it) and across two sockets.
func TestLongGapCatchUpsMatchOpenCodedLoops(t *testing.T) {
	topologies := []struct {
		name           string
		cores, sockets int
	}{{"smt-off", 18, 1}, {"smt-on", 2, 1}, {"two-socket", 1, 2}}
	for _, tp := range topologies {
		for i, c := range gapCases {
			t.Run(tp.name+"/"+c.name, func(t *testing.T) {
				cost := DefaultCostParams()
				cost.CoresPerSocket, cost.Sockets = tp.cores, tp.sockets
				checkGapCase(t, i, cost, 3, 0, 100_000)
			})
		}
	}
}

// TestCatchUpFrontierTies checks catch-ups whose frontier ties a
// sleeper's clock at some step: the writer's gap runs over every residue
// of the sleepers' round length, with the writer, whose key is the
// frontier, ordered both before and after the sleepers.
func TestCatchUpFrontierTies(t *testing.T) {
	for _, writer := range []int{0, 2} {
		for i := range gapCases {
			for d := int64(0); d < 12; d++ {
				t.Run(fmt.Sprintf("writer%d/%s/gap+%d", writer, gapCases[i].name, d), func(t *testing.T) {
					checkGapCase(t, i, DefaultCostParams(), 3, writer, 100_000+d)
				})
			}
		}
	}
}

// TestCatchUpSkipsWholeRounds pins that catch-ups take the closed form: a
// sleeper that catches up across 10⁶ or 10⁷ cycles steps through at most
// three rounds, where replaying every deferred step would run over
// 10⁴ rounds. Every result would stay identical without the closed form,
// so only this test notices losing it.
func TestCatchUpSkipsWholeRounds(t *testing.T) {
	for _, c := range gapCases {
		for _, gap := range []int64{1_000_000, 10_000_000} {
			cost := DefaultCostParams()
			cost.L1Ways = c.ways
			e := NewDet(DetConfig{Threads: 2, Cost: cost})
			a1 := e.Alloc(int(gapStride) + WordsPerLine)
			e.Run(func(th *Thread) { c.run(th, spinner{true}, a1, a1+gapStride, th.ID() == 0, gap) })
			if e.maxSteps > 3*c.round {
				t.Errorf("%s, gap %d: %d catch-up steps, want at most %d (three rounds)", c.name, gap, e.maxSteps, 3*c.round)
			}
		}
	}
}

// TestL1RepeatsChecksTheWholeRound pins each check of l1Cache.repeats on
// one two-way set holding lines a and b: only a second round with the
// same tick delta, tags, versions and touched ways, each moved on by the
// tick delta, repeats the first.
func TestL1RepeatsChecksTheWholeRound(t *testing.T) {
	const a, b, x = 5, 5 + 256, 5 + 512 // one set of a 256-set cache
	type access struct {
		line uint32
		ver  uint64
	}
	cases := []struct {
		name   string
		r1, r2 []access
		want   bool
	}{
		{"same-round", []access{{a, 1}, {b, 1}}, []access{{a, 1}, {b, 1}}, true},
		{"tick-delta", []access{{a, 1}}, []access{{a, 1}, {a, 1}}, false},
		{"touched-ways", []access{{a, 1}}, []access{{b, 1}}, false},
		{"way-left-out", []access{{a, 1}, {b, 1}}, []access{{b, 1}, {b, 1}}, false},
		{"use-order", []access{{a, 1}, {b, 1}}, []access{{b, 1}, {a, 1}}, false},
		{"tag", []access{{a, 1}}, []access{{x, 1}}, false},
		{"version", []access{{a, 1}}, []access{{a, 2}}, false},
	}
	for _, tc := range cases {
		c := newL1Cache(256, 2)
		c.fill(a, 1)
		c.fill(b, 1)
		run := func(r []access) {
			for _, ac := range r {
				if !c.lookup(ac.line, ac.ver) {
					c.fill(ac.line, ac.ver)
				}
			}
		}
		sets := []int{c.setOf(a)}
		var s l1Sets
		t0 := c.tick
		run(tc.r1)
		c.save(&s, sets)
		t1 := c.tick
		run(tc.r2)
		if got := c.repeats(&s, sets, t0, t1); got != tc.want {
			t.Errorf("%s: repeats = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkDormantCatchUp times one run in which a sleeper catches up
// across the given gap. Its ns/op stays flat as the gap grows.
func BenchmarkDormantCatchUp(b *testing.B) {
	for _, gap := range []int64{100_000, 10_000_000} {
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			e := NewDet(DetConfig{Threads: 2})
			flag := e.Alloc(1)
			for i := 0; i < b.N; i++ {
				e.ResetStats()
				v := uint64(i + 1)
				e.Run(func(th *Thread) {
					if th.ID() == 0 {
						th.Work(gap)
						th.Store(flag, v)
					} else {
						th.SpinLoadUntilEq(flag, v)
					}
				})
			}
		})
	}
}

// TestDetEnvDeadlockPanics pins that a program whose every remaining thread
// waits on memory nobody will write fails from Run with the waiting threads
// and their addresses, instead of spinning forever.
func TestDetEnvDeadlockPanics(t *testing.T) {
	e := NewDet(DetConfig{Threads: 2})
	flag := e.Alloc(1)
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.HasPrefix(msg, "memsim: deadlock") {
			t.Fatalf("Run panicked with %v, want a memsim: deadlock report", r)
		}
		for _, part := range []string{"thread 0", "thread 1", "addr 8"} {
			if !strings.Contains(msg, part) {
				t.Errorf("deadlock report %q does not name %q", msg, part)
			}
		}
	}()
	e.Run(func(th *Thread) {
		th.SpinLoadUntilEq(flag, 1)
	})
}
