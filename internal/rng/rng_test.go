package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms = %g, want ≈0.5", mean)
	}
}

func TestUniform(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform(5,9) = %g out of range", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := New(3)
	if v := r.Uniform(4, 4); v != 4 {
		t.Fatalf("Uniform(4,4) = %g, want 4", v)
	}
}

func TestUniformPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	New(1).Uniform(2, 1)
}

func TestIntN(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.IntN(10)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("IntN(10): value %d occurred %d times, want ≈10000", v, c)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).IntN(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	err := quick.Check(func(seed uint64) bool {
		p := New(seed).Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestSplitIndependence(t *testing.T) {
	parent := New(100)
	a := parent.Split("alpha")
	b := parent.Split("beta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("differently-labelled children produced identical first values")
	}
	// Splitting again with the same label yields the same child stream
	// regardless of parent draws in between.
	parent2 := New(100)
	parent2.Uint64()
	c := parent2.Split("alpha")
	a2 := New(100).Split("alpha")
	if c.Uint64() != a2.Uint64() {
		t.Fatal("Split is not stable under parent draws")
	}
}

func TestSplitChain(t *testing.T) {
	x := New(1).Split("exp").Split("point").Split("case-3")
	y := New(1).Split("exp").Split("point").Split("case-3")
	for i := 0; i < 100; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatalf("chained splits diverged at %d", i)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
