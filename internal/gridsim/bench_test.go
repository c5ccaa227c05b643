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
// per-job storage of the one before it and recycles its schedulers: on
// go1.24 a replay costs ≈18 400 B/op and 166 allocs/op over 300 replays
// (61 772 and 921 while each replay built its schedulers anew; a short
// run adds the first replay's ≈1.13 MB over b.N).
// TestReplayFlashCrowdAllocs holds allocs/op under 325: one more
// transient per job would add ≈1.7k. TestReplayFlashCrowdBytes holds
// B/op under 27 000.
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
