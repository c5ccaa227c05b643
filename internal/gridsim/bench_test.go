package gridsim_test

import (
	"testing"

	"faucets/internal/scenario"
)

// BenchmarkReplayFlashCrowd times one replay of the bench's sim-sweep
// input — examples/scenarios/flash-crowd.json stretched to 5000 virtual
// seconds (≈1.7k jobs, every one soliciting all 12 servers) — so ns/op
// here is the bench's gridsim.replay_p50_ms probe and latency_p50_ms on
// sim-sweep, and B/op ÷ jobs is its alloc_kb_per_job.
func BenchmarkReplayFlashCrowd(b *testing.B) {
	spec, err := scenario.Load("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Duration = 5000
	b.ReportAllocs()
	jobs := 0
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunSim(spec)
		if err != nil {
			b.Fatal(err)
		}
		jobs = r.Submitted
	}
	b.ReportMetric(float64(jobs), "jobs/replay")
}
