//go:build !race

package gridsim_test

import (
	"runtime"
	"testing"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestReplayFlashCrowdAllocs pins BenchmarkReplayFlashCrowd: a replay
// allocates less than 13 500 times (12 774 on go1.24), under eight
// allocations per job, each kept by the run.
func TestReplayFlashCrowdAllocs(t *testing.T) {
	jobs := 0
	if got := testing.AllocsPerRun(1, replayCase(t, &jobs)); got > 13500 {
		t.Errorf("flash-crowd replay of %d jobs: %v allocs, want ≤ 13500", jobs, got)
	}
}

// TestReplayFlashCrowdBytes pins BenchmarkReplayFlashCrowd's B/op: a
// replay allocates at most 1.25 MB (1 132 700 B on go1.24). Regrowing
// the contract history or the per-job series append by append instead
// of reserving them from the trace would cost ≈ 460 kB.
func TestReplayFlashCrowdBytes(t *testing.T) {
	jobs := 0
	replay := replayCase(t, &jobs)
	replay() // warm, so one-time setup is not counted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1_250_000 {
		t.Errorf("flash-crowd replay of %d jobs: %d bytes, want ≤ 1 250 000", jobs, got)
	}
}
