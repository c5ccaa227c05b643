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
// per-job storage of the one before it: on go1.24 a replay costs
// ≈80 700 B/op and 2 681 allocs/op. TestReplayFlashCrowdAllocs holds
// allocs/op under 4 000: one more transient per job would add ≈1.7k.
// TestReplayFlashCrowdBytes holds B/op under 400 000.
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
