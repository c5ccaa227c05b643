//go:build !race

package scheduler

import "testing"

// The race detector adds allocations of its own, so the pin stands down
// under -race.

// TestEstimateCompletionAllocs pins BenchmarkEstimateCompletion/running_100:
// a bid's estimate against a hundred running jobs allocates nothing.
func TestEstimateCompletionAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, estimateCase(t, 100)); got != 0 {
		t.Errorf("EstimateCompletion against 100 running jobs: %v allocs, want 0", got)
	}
}
