//go:build !race

package gridsim_test

import "testing"

// The race detector adds allocations of its own, so the pin stands down
// under -race.

// TestReplayFlashCrowdAllocs pins BenchmarkReplayFlashCrowd: a replay
// allocates less than 16 500 times (15 848 on go1.24), less than one
// allocation per job beyond what the run keeps.
func TestReplayFlashCrowdAllocs(t *testing.T) {
	jobs := 0
	if got := testing.AllocsPerRun(1, replayCase(t, &jobs)); got > 16500 {
		t.Errorf("flash-crowd replay of %d jobs: %v allocs, want ≤ 16500", jobs, got)
	}
}
