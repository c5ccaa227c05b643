package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the percentiles a timing may be reported at, lowest
// first, in per mille so that the rule below is exact integer arithmetic.
// The quantile rule picks the highest rung a sample supports.
var tailLadder = []int{500, 900, 990, 999}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// supportedTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it. Small samples fall back to the
// median, which is always reported.
func supportedTail(n int) float64 {
	best := tailLadder[0]
	for _, pm := range tailLadder[1:] {
		if n*(1000-pm)/1000 >= minBeyond {
			best = pm
		}
	}
	return float64(best) / 10
}

// samples is a set of timings in one unit. The zero value is empty.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addSince records the time from start to end in the unit given by per
// (time.Millisecond records milliseconds).
func (s *samples) addSince(start, end time.Time, per time.Duration) {
	s.add(float64(end.Sub(start)) / float64(per))
}

// sorted returns an ordered copy, leaving the receiver in arrival order.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank p-th percentile of an ordered sample;
// zero for an empty one.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// pct returns the p-th percentile of the samples.
func (s samples) pct(p float64) float64 { return quantile(s.sorted(), p) }

// tail returns the p-th percentile when the sample supports it under the
// quantile rule, else the highest percentile it does support, and the
// percentile actually used.
func (s samples) tail(p float64) (value, used float64) {
	used = math.Min(p, supportedTail(len(s)))
	return s.pct(used), used
}

func (s samples) max() float64 {
	m := 0.0
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or zero when b is zero: a per-job figure over a window
// that completed nothing reads 0 rather than NaN, which JSON cannot hold.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
