package main

import (
	"math"
	"sort"

	"aheft/internal/stats"
)

// Latency percentiles use stats.Quantiles, the daemon's own nearest-rank
// definition, so "p90" means here what it means in /metrics. The median
// of a handful of values (slices, cycles, sets) averages the middle two,
// as Python's statistics.median does.

// quantile is one nearest-rank quantile (0..1) of xs; 0 for no samples.
func quantile(xs []float64, q float64) float64 { return stats.Quantiles(xs, q)[0] }

// median returns the middle value of xs, the mean of the middle two for
// an even count, 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default exclusive method) does, so a
// spread computed here matches the one the acceptance driver computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrSpread is the interquartile distance as a share of the median — the
// run-to-run spread the benchmark contract bounds. Fewer than two values
// have no spread.
func iqrSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}

// rangeSpread is (max − min) ÷ median: the agreement measure of -sets,
// stricter than iqrSpread and defined from two sets up.
func rangeSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(med)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
