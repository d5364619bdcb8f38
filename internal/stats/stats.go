// Package stats provides the small set of summary statistics the
// experiment harness reports: means, deviations, confidence intervals and
// the paper's headline metric, the makespan improvement rate of AHEFT over
// HEFT. It also holds the bounded latency window behind every quantile the
// daemon's /metrics reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Sample accumulates observations incrementally using Welford's algorithm,
// which is numerically stable for long sweeps.
type Sample struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Stddev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval on the mean. Sweeps use thousands of cases, where the normal
// approximation is accurate.
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// String renders "mean ± ci (n=N)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Improvement returns the paper's improvement rate of `new` over `base`:
// (base - new) / base. Positive means `new` is better (smaller makespan).
// It returns 0 for a non-positive base.
func Improvement(base, new float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - new) / base
}

// Quantiles returns the requested quantiles (0..1) of xs by the
// nearest-rank (ceil) definition, or zeros when xs is empty. xs is not
// modified. It is the one percentile definition shared by the aheftd
// daemon's /metrics latency window and the overload acceptance test, so
// the two never disagree on what "p99" means.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

// Summary is a latency window's /metrics form: the samples recorded over
// the window's lifetime and the nearest-rank quantiles of those it keeps.
type Summary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Window keeps the last Cap samples for quantile queries, so a long-lived
// process reports current behaviour in bounded memory. It is safe for
// concurrent use; set Cap before the first Record.
type Window struct {
	Cap   int
	mu    sync.Mutex
	buf   []float64
	next  int
	total uint64
}

// Record adds one sample, overwriting the oldest once the window is full.
func (w *Window) Record(x float64) {
	w.mu.Lock()
	if len(w.buf) < w.Cap {
		w.buf = append(w.buf, x)
	} else {
		w.buf[w.next] = x
		w.next = (w.next + 1) % w.Cap
	}
	w.total++
	w.mu.Unlock()
}

// Summary returns the window's count and p50/p90/p99 (zeros when empty).
func (w *Window) Summary() Summary {
	w.mu.Lock()
	defer w.mu.Unlock()
	q := Quantiles(w.buf, 0.50, 0.90, 0.99)
	return Summary{Count: w.total, P50: q[0], P90: q[1], P99: q[2]}
}
