package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %g, want %g", s.Var(), 32.0/7.0)
	}
	if math.Abs(s.Stddev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("Stddev = %g", s.Stddev())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 {
		t.Fatalf("single observation: mean %g var %g", s.Mean(), s.Var())
	}
}

// TestWelfordMatchesNaive checks the streaming moments against the naive
// two-pass computation on random data.
func TestWelfordMatchesNaive(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Sample
		for _, x := range clean {
			s.Add(x)
		}
		mean := Mean(clean)
		ss := 0.0
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(s.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.Var()-naiveVar) < 1e-6*scale
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImprovement(t *testing.T) {
	if v := Improvement(100, 80); v != 0.2 {
		t.Fatalf("Improvement(100,80) = %g, want 0.2", v)
	}
	if v := Improvement(100, 120); v != -0.2 {
		t.Fatalf("Improvement(100,120) = %g, want -0.2", v)
	}
	if v := Improvement(0, 10); v != 0 {
		t.Fatalf("Improvement(0,·) = %g, want 0", v)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty aggregate should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd Median wrong")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even Median wrong")
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Fatal("Median sorted the caller's slice")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); g != 2 {
		t.Fatalf("GeoMean(1,4) = %g, want 2", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %g", g)
	}
	if g := GeoMean([]float64{1, -1}); !math.IsNaN(g) {
		t.Fatalf("GeoMean with negative = %g, want NaN", g)
	}
}

func TestCI95Shrinks(t *testing.T) {
	var small, large Sample
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 4))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 4))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink with n: %g vs %g", large.CI95(), small.CI95())
	}
}

func TestString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Fatal("empty String")
	}
}

func TestWindowKeepsTheLastCap(t *testing.T) {
	w := Window{Cap: 4}
	if got := w.Summary(); got != (Summary{}) {
		t.Fatalf("empty window: %+v", got)
	}
	for x := 1.0; x <= 10; x++ {
		w.Record(x)
	}
	// Ten samples recorded, the last four (7..10) kept.
	if got, want := w.Summary(), (Summary{Count: 10, P50: 8, P90: 10, P99: 10}); got != want {
		t.Fatalf("summary %+v, want %+v", got, want)
	}
}
