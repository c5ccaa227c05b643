//go:build !race

package gridsim_test

import (
	"runtime"
	"testing"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestReplayFlashCrowdAllocs pins BenchmarkReplayFlashCrowd: a replay
// allocates at most 4 000 times (2 681 on go1.24, under 1.6 a job). The
// replay before it left its per-job storage — trace, contracts, job
// records, history, series, award maps — in RunSim's pool; allocating
// the contracts or the job records afresh would add ≈1.7k.
func TestReplayFlashCrowdAllocs(t *testing.T) {
	jobs := 0
	if got := testing.AllocsPerRun(1, replayCase(t, &jobs)); got > 4000 {
		t.Errorf("flash-crowd replay of %d jobs: %v allocs, want ≤ 4000", jobs, got)
	}
}

// TestReplayFlashCrowdBytes pins BenchmarkReplayFlashCrowd's B/op: a
// replay after another allocates at most 400 000 B (≈80 700 B on
// go1.24; 113 232 B while each run grew fresh award maps). A replay on
// fresh storage allocates ≈1.13 MB.
func TestReplayFlashCrowdBytes(t *testing.T) {
	// RunSim's pool hands storage back through the processor the last
	// replay ran on; on one, as in AllocsPerRun, the handoff is certain.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	jobs := 0
	replay := replayCase(t, &jobs)
	replay() // warm, so one-time setup is not counted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 400_000 {
		t.Errorf("flash-crowd replay of %d jobs: %d bytes, want ≤ 400 000", jobs, got)
	}
}
