package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Series accumulates scalar observations (response times, prices, …) and
// reports summary statistics. The zero value is ready to use.
type Series struct {
	vals []float64
	sum  float64
	// sorted is Percentile's sorted copy of vals. Add only appends, so
	// the copy is current exactly when it is as long as vals; vals keeps
	// the order Stddev sums in.
	sorted []float64
}

// Grow reserves room for n more observations, so the next n Adds
// allocate nothing.
func (s *Series) Grow(n int) { s.vals = slices.Grow(s.vals, n) }

// reset empties the series, keeping its storage for the observations
// to come.
func (s *Series) reset() { *s = Series{vals: s.vals[:0], sorted: s.sorted[:0]} }

// Add records one observation.
func (s *Series) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
}

// N returns the number of observations.
func (s *Series) N() int { return len(s.vals) }

// Sum returns the total of all observations.
func (s *Series) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Max returns the largest observation, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
// The sort it needs is kept until the next Add.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if len(s.sorted) != n {
		s.sorted = append(s.sorted[:0], s.vals...)
		sort.Float64s(s.sorted)
	}
	sorted := s.sorted
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// String summarizes the series for experiment reports.
func (s *Series) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Max())
}

// Counter is a named monotonically increasing count (messages sent,
// jobs rejected, conflicts detected, …).
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Addn adds n.
func (c *Counter) Addn(n uint64) { c.n += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// TimeWeighted integrates a step function over virtual time — the right
// statistic for "utilization" and "busy processors": each Set records the
// new level; MeanOver reports the time-weighted average level.
type TimeWeighted struct {
	first   Time
	last    Time
	level   float64
	area    float64
	started bool
}

// Set records that the level changed to v at time t.
func (tw *TimeWeighted) Set(t Time, v float64) {
	if !tw.started {
		tw.first, tw.last, tw.level, tw.started = t, t, v, true
		return
	}
	if t < tw.last {
		// Out-of-order sample; clamp rather than corrupt the integral.
		t = tw.last
	}
	tw.area += tw.level * float64(t-tw.last)
	tw.last = t
	tw.level = v
}

// MeanOver returns the time-weighted mean level from the first sample up
// to time end. If end precedes the last sample, the mean up to the last
// sample is returned instead.
func (tw *TimeWeighted) MeanOver(end Time) float64 {
	if !tw.started {
		return 0
	}
	area := tw.area
	last := tw.last
	if end > last {
		area += tw.level * float64(end-last)
		last = end
	}
	span := float64(last - tw.first)
	if span <= 0 {
		return tw.level
	}
	return area / span
}

// Metrics is a registry of named statistics for one simulation run.
type Metrics struct {
	Series   map[string]*Series
	Counters map[string]*Counter
	Levels   map[string]*TimeWeighted
	// madeS, madeC and madeL hold every statistic the registry has made,
	// by name: a Reset zeroes and unlists them, and S, C and L list them
	// again when asked.
	madeS map[string]*Series
	madeC map[string]*Counter
	madeL map[string]*TimeWeighted
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		Series:   map[string]*Series{},
		Counters: map[string]*Counter{},
		Levels:   map[string]*TimeWeighted{},
		madeS:    map[string]*Series{},
		madeC:    map[string]*Counter{},
		madeL:    map[string]*TimeWeighted{},
	}
}

// Reset empties the registry for another run. Every statistic keeps its
// storage: S, C and L hand each one back, zeroed, when the next run first
// asks for it by name, so the registry holds the same names as a new one.
func (m *Metrics) Reset() {
	for _, s := range m.Series {
		s.reset()
	}
	for _, c := range m.Counters {
		*c = Counter{}
	}
	for _, l := range m.Levels {
		*l = TimeWeighted{}
	}
	clear(m.Series)
	clear(m.Counters)
	clear(m.Levels)
}

// stat returns live[name]. A name live lacks is listed with its statistic
// from made, which a Reset left zeroed, or with a new one made there.
func stat[T any](live, made map[string]*T, name string) *T {
	v, ok := live[name]
	if !ok {
		if v, ok = made[name]; !ok {
			v = new(T)
			made[name] = v
		}
		live[name] = v
	}
	return v
}

// S returns (creating if needed) the named series.
func (m *Metrics) S(name string) *Series { return stat(m.Series, m.madeS, name) }

// C returns (creating if needed) the named counter.
func (m *Metrics) C(name string) *Counter { return stat(m.Counters, m.madeC, name) }

// L returns (creating if needed) the named time-weighted level.
func (m *Metrics) L(name string) *TimeWeighted { return stat(m.Levels, m.madeL, name) }
