//go:build !race

package db

import "testing"

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestMutatorAllocs pins the ephemeral mutators: a balance change
// allocates nothing, and neither does a job row, staged in the Tx's slab.
func TestMutatorAllocs(t *testing.T) {
	d := New()
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"AddRevenue", 0, func() { d.AddRevenue("s", 1) }},
		{"PutJob", 0, func() { d.PutJob(JobRecord{ID: "j"}) }},
		{"UpdateJob", 0, func() { _ = d.UpdateJob("j", func(r *JobRecord) { r.State = "running" }) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %v allocs, want ≤ %v", c.name, got, c.max)
		}
	}
}
