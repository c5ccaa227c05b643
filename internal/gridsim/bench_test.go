package gridsim_test

import (
	"testing"

	"faucets/internal/scenario"
)

// replayCase is one replay of the bench's sim-sweep input —
// examples/scenarios/flash-crowd.json stretched to 5000 virtual seconds
// (≈1.7k jobs, every one soliciting all 12 servers) — storing the jobs
// it submitted in *jobs.
func replayCase(tb testing.TB, jobs *int) func() {
	spec, err := scenario.Load("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		tb.Fatal(err)
	}
	spec.Duration = 5000
	return func() {
		r, err := scenario.RunSim(spec)
		if err != nil {
			tb.Fatal(err)
		}
		*jobs = r.Submitted
	}
}

// BenchmarkReplayFlashCrowd times replayCase, so ns/op here is the
// bench's gridsim.replay_p50_ms probe and latency_p50_ms on sim-sweep,
// and B/op ÷ jobs is its alloc_kb_per_job. Each replay reuses the
// storage of the one before it — fleet, run state, statistics — and
// recycles its schedulers: on go1.24 a replay costs ≈2 600 B/op and 28
// allocs/op over 300 replays, its report and its trace's scratch
// (18 400 and 166 while each replay rebuilt its fleet, maps and levels,
// 61 772 and 921 while it also built its schedulers anew). A run adds
// ≈1.13 MB over b.N for each replay that found RunSim's pool empty,
// as a short one may. TestReplayFlashCrowdAllocs holds allocs/op under
// 120: one more transient per job would add ≈1.7k.
// TestReplayFlashCrowdBytes holds B/op under 4 200.
func BenchmarkReplayFlashCrowd(b *testing.B) {
	jobs := 0
	replay := replayCase(b, &jobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(jobs), "jobs/replay")
}
