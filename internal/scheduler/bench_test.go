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
// each. With rebuild, an Advance before each bid makes it rebuild the
// kept plan, as the first bid after a state change does.
func estimateCase(tb testing.TB, n int, rebuild bool) func() {
	probe := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 2000}
	s := NewEquipartition(spec(n*256/100), Config{})
	for i := 0; i < n; i++ {
		s.Submit(0, mk(fmt.Sprintf("b%d", i), 1, 4, 1e9))
	}
	if s.RunningCount() != n {
		tb.Fatalf("%d of %d jobs running", s.RunningCount(), n)
	}
	if rebuild {
		return func() { s.Advance(1); benchSink, _ = s.EstimateCompletion(1, probe) }
	}
	return func() { benchSink, _ = s.EstimateCompletion(1, probe) }
}

// BenchmarkEstimateCompletion times estimateCase. running_100 is the
// bench's scheduler.estimate_ns probe; TestEstimateCompletionAllocs pins
// it and rebuild_100 at 0 allocs/op.
func BenchmarkEstimateCompletion(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		for _, rebuild := range []bool{false, true} {
			name := fmt.Sprintf("running_%d", n)
			if rebuild {
				name = fmt.Sprintf("rebuild_%d", n)
			}
			b.Run(name, func(b *testing.B) {
				estimate := estimateCase(b, n, rebuild)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					estimate()
				}
			})
		}
	}
}

// BenchmarkProfitEstimate times a profit bid on a 64-PE machine holding n
// rigid 4-PE jobs: 16 run and the rest queue within the lookahead. A bid
// is the admission verdict, so it plans the machine with and without the
// probe, and each plan searches the Gantt chart once per queued job. It
// is the live bid cost of a profit daemon as its queue deepens.
func BenchmarkProfitEstimate(b *testing.B) {
	probe := &qos.Contract{App: "synth", MinPE: 2, MaxPE: 16, Work: 2000}
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("jobs_%d", n), func(b *testing.B) {
			s := NewProfit(spec(64), Config{Lookahead: 1e12})
			for i := 0; i < n; i++ {
				if !s.Submit(0, mk(fmt.Sprintf("b%d", i), 4, 4, 4e6)) {
					b.Fatalf("job %d refused", i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = s.EstimateCompletion(1, probe)
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
