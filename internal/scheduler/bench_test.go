package scheduler

import (
	"fmt"
	"testing"

	"faucets/internal/job"
	"faucets/internal/qos"
)

var benchSink float64

// estimateCase is what every bid asks the Cluster Manager (§5.2: "when
// would this finish?") against n long-running adaptive jobs at ≈2.5 PEs
// each.
func estimateCase(tb testing.TB, n int) func() {
	probe := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 2000}
	s := NewEquipartition(spec(n*256/100), Config{})
	for i := 0; i < n; i++ {
		s.Submit(0, mk(fmt.Sprintf("b%d", i), 1, 4, 1e9))
	}
	if s.RunningCount() != n {
		tb.Fatalf("%d of %d jobs running", s.RunningCount(), n)
	}
	return func() { benchSink, _ = s.EstimateCompletion(1, probe) }
}

// BenchmarkEstimateCompletion times estimateCase. running_100 is the
// bench's scheduler.estimate_ns probe; TestEstimateCompletionAllocs pins
// it at 0 allocs/op.
func BenchmarkEstimateCompletion(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("running_%d", n), func(b *testing.B) {
			estimate := estimateCase(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				estimate()
			}
		})
	}
}

// BenchmarkAdvanceReallocate times one scheduler event pair — a Submit
// and the Advance that finishes the job, each reallocating the machine —
// the bench's scheduler.submit_finish_ns probe.
func BenchmarkAdvanceReallocate(b *testing.B) {
	s := NewEquipartition(spec(256), Config{})
	jobs := make([]*job.Job, b.N)
	for i := range jobs {
		jobs[i] = mk(fmt.Sprintf("p%d", i), 2, 32, 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := 0.0
	for _, j := range jobs {
		s.Submit(now, j)
		now++
		s.Advance(now)
	}
}
