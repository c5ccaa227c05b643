package main

import (
	"math"
	"testing"
	"time"
)

// The quantile rule: report the highest percentile with at least ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {19, 50}, {99, 50}, // fewer than 10 beyond p90
		{100, 90}, {101, 90}, {999, 90}, // 10..99 beyond p90, fewer than 10 beyond p99
		{1000, 99}, {1500, 99}, {9999, 99},
		{10000, 99.9}, {250000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	var s samples
	for i := 1; i <= 200; i++ {
		s.add(float64(i))
	}
	// 200 samples support p90 (20 beyond) but not p99 (2 beyond).
	v, used := s.tail(99)
	if used != 90 || v != 180 {
		t.Errorf("tail(99) of 1..200 = %v at p%v, want 180 at p90", v, used)
	}
	v, used = s.tail(90)
	if used != 90 || v != 180 {
		t.Errorf("tail(90) of 1..200 = %v at p%v, want 180 at p90", v, used)
	}
	v, used = samples{7, 3, 5}.tail(99)
	if used != 50 || v != 5 {
		t.Errorf("tail(99) of three samples = %v at p%v, want the median 5 at p50", v, used)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for p, want := range map[float64]float64{0: 10, 10: 10, 50: 50, 51: 60, 90: 90, 99: 100, 100: 100} {
		if got := quantile(sorted, p); got != want {
			t.Errorf("quantile(p%v) = %v, want %v", p, got, want)
		}
	}
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	// pct must not reorder the caller's samples.
	s := samples{3, 1, 2}
	if s.pct(50) != 2 || s[0] != 3 {
		t.Errorf("pct(50) = %v with samples now %v, want 2 and arrival order kept", s.pct(50), s)
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	from := snapshot{series: map[string]float64{
		`lat_bucket{le="0.001"}`: 10, `lat_bucket{le="0.002"}`: 10, `lat_bucket{le="+Inf"}`: 10,
	}}
	// Over the window: 40 observations at most 1 ms, 40 more in (1,2] ms,
	// summed over two label sets.
	to := snapshot{series: map[string]float64{
		`lat_bucket{le="0.001"}`: 30, `lat_bucket{le="0.002"}`: 50, `lat_bucket{le="+Inf"}`: 50,
		`lat_bucket{d="b",le="0.001"}`: 20, `lat_bucket{d="b",le="0.002"}`: 40, `lat_bucket{d="b",le="+Inf"}`: 40,
	}}
	d := between(from, to)
	if got := d.histogramQuantile("lat", 0.5); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("p50 = %v, want 0.001 (rank 40 of 80 closes the first bucket)", got)
	}
	if got := d.histogramQuantile("lat", 0.75); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p75 = %v, want 0.0015 (halfway through the second bucket)", got)
	}
	if got := d.histogramQuantile("absent", 0.5); got != 0 {
		t.Errorf("quantile of an absent histogram = %v, want 0", got)
	}
}

func TestGoodSliceIsTheSecondBestOfTwenty(t *testing.T) {
	var twenty samples
	for i := 20; i >= 1; i-- { // unordered on purpose
		twenty.add(float64(i))
	}
	if got := goodSlice(twenty, "lower"); got != 2 {
		t.Errorf("lower is better: picked %v of 1..20, want 2", got)
	}
	if got := goodSlice(twenty, "higher"); got != 19 {
		t.Errorf("higher is better: picked %v of 1..20, want 19", got)
	}
	// Ten slices or fewer: the best one.
	if got := goodSlice(samples{5, 3, 9}, "lower"); got != 3 {
		t.Errorf("picked %v of three, want the best, 3", got)
	}
	if got := goodSlice(samples{5, 3, 9}, "higher"); got != 9 {
		t.Errorf("picked %v of three, want the best, 9", got)
	}
	if got := goodSlice(nil, "lower"); got != 0 {
		t.Errorf("no slices: %v, want 0", got)
	}
}

func TestWindowAccFallsBackWithoutSlices(t *testing.T) {
	// A window shorter than one slice has none: every figure then comes
	// from the whole window.
	a := &windowAcc{}
	a.d.elapsed = 500 * time.Millisecond
	a.d.cpuMs = 200
	now := time.Now()
	for i := 1; i <= 100; i++ {
		a.observe(now, float64(i))
	}
	if got := a.jobsPerSecond(100); got != 200 {
		t.Errorf("jobs per second %v, want 100 jobs / 0.5 s", got)
	}
	if got := a.cpuMsPerJob(100); got != 2 {
		t.Errorf("cpu per job %v, want 200 ms / 100 jobs", got)
	}
	if got := a.latencyMs(90); got != 90 {
		t.Errorf("p90 %v, want 90 over all samples", got)
	}
}

func TestWindowAccUsesGoodSlices(t *testing.T) {
	start := time.Now()
	a := &windowAcc{}
	// Three one-second slices: a stalled one, a typical one, a good one.
	for i, sl := range []struct {
		done  int64
		cpuMs float64
		lat   float64
	}{{10, 100, 50}, {100, 200, 5}, {120, 180, 4}} {
		from := start.Add(time.Duration(i) * time.Second)
		a.slices = append(a.slices, slice{from, from.Add(time.Second), sl.cpuMs, sl.done})
		for k := 0; k < 20; k++ {
			a.observe(from.Add(time.Duration(k)*time.Millisecond), sl.lat)
		}
	}
	if got := a.jobsPerSecond(230); got != 120 {
		t.Errorf("jobs per second %v, want the good slice's 120", got)
	}
	if got := a.cpuMsPerJob(230); got != 1.5 {
		t.Errorf("cpu per job %v, want the good slice's 180/120", got)
	}
	if got := a.latencyMs(50); got != 4 {
		t.Errorf("p50 %v, want the good slice's 4", got)
	}
}
