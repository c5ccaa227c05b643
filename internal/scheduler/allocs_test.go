//go:build !race

package scheduler

import "testing"

// The race detector adds allocations of its own, so the pin stands down
// under -race.

// TestEstimateCompletionAllocs pins BenchmarkEstimateCompletion/running_100
// and rebuild_100: a bid's estimate against a hundred running jobs
// allocates nothing, whether it reads the kept plan or rebuilds it.
func TestEstimateCompletionAllocs(t *testing.T) {
	for _, rebuild := range []bool{false, true} {
		if got := testing.AllocsPerRun(100, estimateCase(t, 100, rebuild)); got != 0 {
			t.Errorf("EstimateCompletion against 100 running jobs (rebuild %v): %v allocs, want 0", rebuild, got)
		}
	}
}
