package memsim

import (
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
// number of words, and requires identical per-thread clocks and counters,
// identical wait outcomes and identical final memory (words, line metadata
// and last writers).
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
