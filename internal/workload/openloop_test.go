package workload

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestPoissonMeanRate(t *testing.T) {
	gen, err := NewPoisson(500) // 500 ops/Mcycle => mean gap 2000 cycles
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	const horizon = 10_000_000
	sched := GenSchedule(gen, horizon, r)
	got := float64(len(sched)) / horizon * 1e6
	if math.Abs(got-500)/500 > 0.05 {
		t.Fatalf("poisson empirical rate %.1f ops/Mcycle, want ~500", got)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] <= sched[i-1] {
			t.Fatalf("arrivals not strictly increasing at %d: %d then %d", i, sched[i-1], sched[i])
		}
	}
	if len(sched) > 0 && sched[len(sched)-1] >= horizon {
		t.Fatalf("arrival %d at or past horizon %d", sched[len(sched)-1], horizon)
	}
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	gen, err := NewPoisson(1000)
	if err != nil {
		t.Fatal(err)
	}
	a := GenSchedule(gen, 1_000_000, rand.New(rand.NewPCG(7, 9)))
	b := GenSchedule(gen, 1_000_000, rand.New(rand.NewPCG(7, 9)))
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPopulationRate(t *testing.T) {
	// 1e6 users thinking 1e9 cycles each => 1e6/1e9*1e6 = 1000 ops/Mcycle.
	gen, err := NewPopulation(1_000_000, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gen.Rate()-1000) > 1e-9 {
		t.Fatalf("population rate %.3f, want 1000", gen.Rate())
	}
	if _, err := NewPopulation(0, 100); err == nil {
		t.Fatal("expected error for zero users")
	}
	if _, err := NewPopulation(10, 0); err == nil {
		t.Fatal("expected error for zero think time")
	}
}

func TestPoissonRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -3, math.Inf(1), math.NaN()} {
		if _, err := NewPoisson(rate); err == nil {
			t.Fatalf("expected error for rate %v", rate)
		}
	}
}

func TestGenScheduleEmptyHorizon(t *testing.T) {
	gen, _ := NewPoisson(1000)
	if got := GenSchedule(gen, 0, rand.New(rand.NewPCG(1, 1))); got != nil {
		t.Fatalf("zero horizon produced %d arrivals", len(got))
	}
}
