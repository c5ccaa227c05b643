//go:build !race

package db

import "testing"

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestSettleTxAllocs pins BenchmarkSettleTx/{ephemeral,durable_1}: a
// settlement's transaction costs its job ID and its share of table
// growth, and on a durable database no more — its WAL line is encoded
// into the log writer's own buffer and waiting on its ticket allocates
// nothing.
func TestSettleTxAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, settleCase(New())); got > 2 {
		t.Errorf("ephemeral settle: %v allocs, want ≤ 2", got)
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := testing.AllocsPerRun(100, settleCase(d)); got > 2 {
		t.Errorf("durable settle, one caller: %v allocs, want ≤ 2", got)
	}
}

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
