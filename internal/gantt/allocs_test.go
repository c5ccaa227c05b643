//go:build !race

package gantt

import (
	"testing"

	"faucets/internal/sim"
)

// The race detector adds allocations of its own, so the pin stands down
// under -race.

// TestFindWindowAllocs pins a window search on a warmed chart — 200
// reservations on 1024 processors, the bench's gantt.find_window_ns
// probe — at 0 allocations: the sweep walks the steps in place.
func TestFindWindowAllocs(t *testing.T) {
	c := NewChart(1024)
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		start := rng.Range(0, 1000)
		_, _ = c.Reserve(start, start+rng.Range(10, 100), 1+rng.Intn(512))
	}
	search := func() { _, _ = c.FindWindow(rng.Range(0, 1000), 50, 256, 0) }
	if got := testing.AllocsPerRun(1000, search); got != 0 {
		t.Errorf("FindWindow on a warmed chart: %v allocs, want 0", got)
	}
}
