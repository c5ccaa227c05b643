package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasicStats(t *testing.T) {
	var s Series
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N=%d", s.N())
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum=%v", s.Sum())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean=%v", s.Mean())
	}
	if s.Max() != 5 {
		t.Fatalf("Max=%v", s.Max())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series statistics should all be zero")
	}
}

// Grow reserves without recording: the series stays empty, and the
// next Adds fill the reserved array in place.
func TestSeriesGrow(t *testing.T) {
	var s Series
	s.Grow(8)
	if s.N() != 0 || s.Sum() != 0 || cap(s.vals) < 8 {
		t.Fatalf("after Grow(8): N=%d Sum=%v cap=%d", s.N(), s.Sum(), cap(s.vals))
	}
	s.Add(1)
	first := &s.vals[0]
	for i := 2; i <= 8; i++ {
		s.Add(float64(i))
	}
	if &s.vals[0] != first {
		t.Fatal("Adds within the reserved room moved the array")
	}
	if s.N() != 8 || s.Mean() != 4.5 || s.Percentile(50) != 4 {
		t.Fatalf("N=%d Mean=%v p50=%v", s.N(), s.Mean(), s.Percentile(50))
	}
}

// The values arrive in descending order, so a Percentile that sorted the
// series in place would reorder it; the sorted copy it keeps must follow
// a later Add.
func TestSeriesPercentile(t *testing.T) {
	cube := func(i float64) float64 { return i * i * i / 3 }
	var s Series
	for i := 100; i >= 1; i-- {
		s.Add(cube(float64(i)))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 50}, {95, 95}, {100, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != cube(c.want) {
			t.Errorf("P%v = %v, want %v", c.p, got, cube(c.want))
		}
	}
	if s.vals[0] != cube(100) || s.vals[99] != cube(1) {
		t.Errorf("Percentile reordered the series: first %v, last %v", s.vals[0], s.vals[99])
	}
	s.Add(1e9)
	if got := s.Percentile(100); got != 1e9 {
		t.Errorf("P100 after Add = %v, want 1e9", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestSeriesPercentileProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Series
		lo := math.Inf(1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
			lo = min(lo, v)
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < prev || v < lo || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	c.Addn(3)
	if c.Value() != 5 {
		t.Fatalf("Value=%d, want 5", c.Value())
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 10) // level 10 over [0,4)
	tw.Set(4, 0)  // level 0 over [4,10)
	got := tw.MeanOver(10)
	want := (10.0*4 + 0*6) / 10
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanOver(10)=%v, want %v", got, want)
	}
}

func TestTimeWeightedEmptyAndDegenerate(t *testing.T) {
	var tw TimeWeighted
	if tw.MeanOver(100) != 0 {
		t.Fatal("mean of empty level should be 0")
	}
	tw.Set(5, 7)
	// Zero span: return the level itself.
	if tw.MeanOver(5) != 7 {
		t.Fatalf("zero-span mean = %v, want 7", tw.MeanOver(5))
	}
}

func TestTimeWeightedOutOfOrderClamped(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 1)
	tw.Set(10, 2)
	tw.Set(5, 3) // out of order: treated as at t=10
	got := tw.MeanOver(20)
	want := (1.0*10 + 3.0*10) / 20
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean=%v want %v", got, want)
	}
}

// TestMetricsRegistryAndReport: statistics are shared by name, and the
// registry's tables — what a run's report reads — list each one.
func TestMetricsRegistryAndReport(t *testing.T) {
	m := NewMetrics()
	m.C("jobs.done").Inc()
	m.S("resp").Add(1.5)
	m.L("util").Set(0, 0.5)
	if m.C("jobs.done").Value() != 1 {
		t.Fatal("counter not shared by name")
	}
	if m.S("resp") != m.S("resp") {
		t.Fatal("series not shared by name")
	}
	if m.Counters["jobs.done"] == nil || m.Series["resp"] == nil || m.Levels["util"] == nil {
		t.Fatalf("registry tables miss a statistic: %v %v %v", m.Counters, m.Series, m.Levels)
	}
}
