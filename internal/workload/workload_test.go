package workload

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestUniformBoundsAndCoverage(t *testing.T) {
	u := Uniform{N: 16}
	r := rand.New(rand.NewPCG(1, 1))
	seen := make([]int, 16)
	for i := 0; i < 10000; i++ {
		k := u.Next(r)
		if k >= 16 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k]++
	}
	for k, c := range seen {
		if c == 0 {
			t.Fatalf("key %d never drawn", k)
		}
	}
	if u.Range() != 16 {
		t.Fatal("Range wrong")
	}
}

func TestZipfBounds(t *testing.T) {
	z, err := NewZipf(1024, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 100000; i++ {
		if k := z.Next(r); k >= 1024 {
			t.Fatalf("key %d out of range", k)
		}
	}
	if z.Range() != 1024 {
		t.Fatal("Range wrong")
	}
}

func TestZipfSkewIncreasesHeadMass(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	mass := func(theta float64) float64 {
		z, err := NewZipf(1024, theta)
		if err != nil {
			t.Fatal(err)
		}
		head := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Next(r) < 16 {
				head++
			}
		}
		return float64(head) / n
	}
	m0 := mass(0)
	m5 := mass(0.5)
	m9 := mass(0.9)
	if !(m0 < m5 && m5 < m9) {
		t.Fatalf("head mass not increasing with skew: %.3f %.3f %.3f", m0, m5, m9)
	}
	// theta=0 is uniform: head mass should be about 16/1024.
	if math.Abs(m0-16.0/1024) > 0.01 {
		t.Fatalf("theta=0 head mass %.4f, want ~%.4f", m0, 16.0/1024)
	}
	// theta=0.9 concentrates heavily.
	if m9 < 0.3 {
		t.Fatalf("theta=0.9 head mass %.3f, expected heavy skew", m9)
	}
}

func TestZipfZetaSmall(t *testing.T) {
	// zeta(3, 1->0.0) = 1 + 1/2^0 + 1/3^0 = 3 at theta 0.
	if got := zeta(3, 0); got != 3 {
		t.Fatalf("zeta(3,0) = %v", got)
	}
	want := 1 + 1/math.Sqrt(2) + 1/math.Sqrt(3)
	if got := zeta(3, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zeta(3,0.5) = %v, want %v", got, want)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(10, 1.0); err == nil {
		t.Error("theta=1 accepted")
	}
	if _, err := NewZipf(10, -0.1); err == nil {
		t.Error("negative theta accepted")
	}
}

func TestMixFrequencies(t *testing.T) {
	m, err := NewMix(40, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(4, 4))
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[m.Pick(r)]++
	}
	for i, want := range []float64{0.4, 0.3, 0.3} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("kind %d frequency %.3f, want %.2f", i, got, want)
		}
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := NewMix(50, 30); err == nil {
		t.Error("sum != 100 accepted")
	}
	if _, err := NewMix(120, -20); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestUpdateMixShapes(t *testing.T) {
	for _, findPct := range []int{0, 40, 80, 100} {
		m, err := UpdateMix(findPct)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewPCG(uint64(findPct), 5))
		counts := make([]int, 3)
		for i := 0; i < 50000; i++ {
			counts[m.Pick(r)]++
		}
		got := float64(counts[0]) / 50000
		if math.Abs(got-float64(findPct)/100) > 0.01 {
			t.Fatalf("findPct %d: observed %.3f", findPct, got)
		}
		// Insert and remove shares should be nearly equal.
		if d := counts[1] - counts[2]; d > 1500 || d < -1500 {
			t.Fatalf("findPct %d: insert/remove imbalance: %v", findPct, counts)
		}
	}
	if _, err := UpdateMix(101); err == nil {
		t.Error("out-of-range find percentage accepted")
	}
}
