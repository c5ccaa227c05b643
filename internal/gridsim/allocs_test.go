//go:build !race

package gridsim_test

import (
	"runtime"
	"testing"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestReplayFlashCrowdAllocs pins BenchmarkReplayFlashCrowd: a replay
// allocates at most 325 times (217 on go1.24 right after a warm-up, 166
// in a long run; 923 while each replay built its schedulers anew). The
// replay before it left its per-job storage — trace, contracts, job
// records, history, series, award maps — in RunSim's pool and its
// schedulers recycled; building the 12 schedulers afresh would add ≈750.
func TestReplayFlashCrowdAllocs(t *testing.T) {
	jobs := 0
	if got := testing.AllocsPerRun(1, replayCase(t, &jobs)); got > 325 {
		t.Errorf("flash-crowd replay of %d jobs: %v allocs, want ≤ 325", jobs, got)
	}
}

// TestReplayFlashCrowdBytes pins BenchmarkReplayFlashCrowd's B/op: a
// replay after others allocates at most 27 000 B (18 232 B on go1.24;
// 61 408 B while each replay built its schedulers anew, 113 232 B while
// each grew fresh award maps). A replay on fresh storage allocates
// ≈1.13 MB.
func TestReplayFlashCrowdBytes(t *testing.T) {
	// RunSim's pool hands storage back through the processor the last
	// replay ran on; on one, as in AllocsPerRun, the handoff is certain.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	jobs := 0
	replay := replayCase(t, &jobs)
	// Warm, so one-time setup is not counted: the first replays still grow
	// the recycled schedulers' slices, and the award map, reseeded by each
	// clear, now and then splits a table (≈21 KB) until it has enough.
	for range 4 {
		replay()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 27_000 {
		t.Errorf("flash-crowd replay of %d jobs: %d bytes, want ≤ 27 000", jobs, got)
	}
}
