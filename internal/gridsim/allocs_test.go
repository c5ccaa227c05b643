//go:build !race

package gridsim_test

import (
	"runtime"
	"testing"

	"faucets/internal/scenario"
)

// The race detector adds allocations of its own, so the pins stand down
// under -race.

// TestReplayFlashCrowdAllocs pins BenchmarkReplayFlashCrowd: a replay
// allocates at most 120 times (78 on go1.24 right after a warm-up, 28 in
// a long run; 217 and 166 while each replay rebuilt its fleet, its maps
// and its levels, 923 while it also built its schedulers anew). The
// replay before it left its storage — trace, fleet, job records and
// awards, history, statistics, the Result's maps, the engine — in
// RunSim's pool and its schedulers recycled, so what is left is the
// report and the trace's generation scratch.
func TestReplayFlashCrowdAllocs(t *testing.T) {
	jobs := 0
	if got := testing.AllocsPerRun(1, replayCase(t, &jobs)); got > 120 {
		t.Errorf("flash-crowd replay of %d jobs: %v allocs, want ≤ 120", jobs, got)
	}
}

// bytesOf returns the bytes f allocates. RunSim's pool hands storage back
// through the processor the last replay ran on, so a caller measuring a
// replay runs on one, as AllocsPerRun does, where the handoff is certain.
func bytesOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayFlashCrowdBytes pins BenchmarkReplayFlashCrowd's B/op: a
// replay after others allocates at most 4 200 B (2 816 B on go1.24, of
// which the report is ≈2 100; 18 232 B while each replay rebuilt its
// fleet, its maps and its levels, 61 408 B while it also built its
// schedulers anew). A replay on fresh storage allocates ≈1.13 MB.
func TestReplayFlashCrowdBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	jobs := 0
	replay := replayCase(t, &jobs)
	// Warm, so one-time setup is not counted: the first replays still grow
	// the recycled schedulers' slices.
	for range 4 {
		replay()
	}
	if got := bytesOf(replay); got > 4_200 {
		t.Errorf("flash-crowd replay of %d jobs: %d bytes, want ≤ 4 200", jobs, got)
	}
}

// TestSweepBytes pins the bench's sim-sweep traffic, which the one-seed
// pin above never sees: flash-crowd replays of consecutive seeds, each
// drawing its own fleet and trace. Once each seed has been replayed, so
// that no kept slice still grows to a trace longer than it has held, no
// seed's replay allocates more than 6 500 B (4 352 B on go1.24; 19 928 B
// while each replay rebuilt its fleet, its maps and its levels).
func TestSweepBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, err := scenario.Load("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 5000
	replay := func(seed uint64) func() {
		return func() {
			s := *spec
			s.Seed = seed
			if _, err := scenario.RunSim(&s); err != nil {
				t.Fatal(err)
			}
		}
	}
	const seeds = 8
	for seed := uint64(1); seed <= seeds; seed++ {
		replay(seed)()
	}
	worst, at := uint64(0), uint64(0)
	for seed := uint64(1); seed <= seeds; seed++ {
		if got := bytesOf(replay(seed)); got > worst {
			worst, at = got, seed
		}
	}
	t.Logf("sweep of seeds 1–%d: at most %d B a replay (seed %d)", seeds, worst, at)
	if worst > 6_500 {
		t.Errorf("flash-crowd sweep of seeds 1–%d: seed %d's replay allocated %d bytes, want ≤ 6 500", seeds, at, worst)
	}
}
