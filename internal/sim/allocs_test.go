//go:build !race

package sim

import "testing"

// TestResetKeepsStatistics: after a Reset, S, C and L hand back the last
// run's statistics by name, zeroed, and allocate nothing; a name the next
// run never asks for is not listed.
func TestResetKeepsStatistics(t *testing.T) {
	m := NewMetrics()
	run := func() {
		m.Reset()
		if n := len(m.Series) + len(m.Counters) + len(m.Levels); n != 0 {
			t.Fatalf("%d statistics listed after a Reset", n)
		}
		l, c, s := m.L("util.a"), m.C("jobs.placed"), m.S("response_time")
		if *l != (TimeWeighted{}) || c.Value() != 0 || s.N() != 0 || s.Sum() != 0 {
			t.Fatalf("after a Reset: level %+v, counter %d, series n=%d sum=%v", *l, c.Value(), s.N(), s.Sum())
		}
		l.Set(0, 1)
		l.Set(5, 3)
		c.Inc()
		s.Add(2)
	}
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("a Reset and a run's statistics: %v allocs, want 0", n)
	}
}
