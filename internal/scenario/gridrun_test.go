package scenario

import (
	"math"
	"testing"

	"faucets/internal/grid"
)

// TestOpenLoopHoldsSchedule is the open-loop property pin: with one
// daemon turned into a slow-loris (every reply byte trickled), each
// auction takes far longer than the mean inter-arrival gap — yet the
// driver's achieved submit rate must stay within 5% of the scheduled
// arrival rate, because an open-loop harness never waits for an
// auction (let alone a completion) before firing the next submission.
// A closed-loop driver under the same fleet would be rate-limited to
// 1/auction-latency and fail the bound by an order of magnitude.
func TestOpenLoopHoldsSchedule(t *testing.T) {
	s := &Spec{
		Name:     "open-loop-pin",
		Seed:     77,
		Duration: 1500, // ~150 jobs over ~1.5 wall seconds at rate 0.1
		Topology: Topology{
			Count: 4, PEs: 32,
			CostMin: 0.01, CostMax: 0.013,
			Sick:  1,
			Chaos: &ChaosProfile{Seed: 7, TrickleProb: 1, TrickleDelayMs: 5},
		},
		Jobs: JobMix{MinWork: 10, MaxWork: 100, MaxPE: 8},
		Traffic: []Process{
			{Kind: "poisson", Rate: 0.1},
		},
		Grid: GridTuning{
			RPCTimeoutMs:   150,
			BidTimeoutMs:   30,
			SettleRetryMs:  25,
			DrainTimeoutMs: 20_000,
		},
	}
	rep, err := RunGrid(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpenLoop == nil {
		t.Fatal("grid report has no open-loop stats")
	}
	ol := rep.OpenLoop
	t.Logf("open-loop: scheduled=%.2f/s achieved=%.2f/s err=%+.4f max-lag=%.1fms ttc p50=%.1fms",
		ol.ScheduledJobsPerSec, ol.AchievedJobsPerSec, ol.RateError, ol.MaxSubmitLagMs, rep.TTC.P50)

	// The property itself: |achieved − scheduled| ≤ 5% of scheduled.
	if math.Abs(ol.RateError) > 0.05 {
		t.Fatalf("achieved rate off by %.2f%% (>5%%): the driver is closing the loop",
			ol.RateError*100)
	}
	if rep.Submitted != rep.Jobs {
		t.Fatalf("submitted %d of %d jobs: driver dropped arrivals", rep.Submitted, rep.Jobs)
	}

	// The bound above is only interesting if auctions really were slower
	// than arrivals — otherwise even a closed-loop driver passes. The
	// trickled daemon guarantees it: median time-to-contract must exceed
	// the mean inter-arrival gap.
	meanGapMs := s.Duration / float64(rep.Jobs) // virtual s ≈ wall ms at timescale 1000
	if rep.TTC.N == 0 || rep.TTC.P50 <= meanGapMs {
		t.Fatalf("median TTC %.1fms <= mean gap %.1fms: auction latency never exceeded the arrival clock, property not exercised",
			rep.TTC.P50, meanGapMs)
	}

	// And the run must still have produced a populated report: the slow
	// daemon degrades latency, it must not lose jobs.
	if rep.Placed == 0 || rep.Finished == 0 || rep.Settled == 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
	if rep.Revenue <= 0 {
		t.Fatalf("no revenue recorded: %+v", rep)
	}
	if rep.Counters["central.jobs_settled"] != float64(rep.Settled) {
		t.Fatalf("scraped settled counter %v != observed %d",
			rep.Counters["central.jobs_settled"], rep.Settled)
	}
	if len(rep.UtilizationPerServer) == 0 {
		t.Fatal("no per-server utilization sampled")
	}
}

// TestFinishWatchSeesPastAnOpenBreaker: jobs placed on a daemon whose
// breaker opens afterwards must still be seen to finish. The grid has
// one daemon and breakers that open on the first failure and stay open
// for a minute; halfway through the schedule the daemon is restarted
// from its journal, so the status polls spinning on its running jobs
// fail and open the placing client's breaker on it. The jobs run on and
// finish after the restart. A finish watch gated by that breaker reads
// nothing but refusals until the drain gives up on every job.
func TestFinishWatchSeesPastAnOpenBreaker(t *testing.T) {
	noDeadlines := 0.0
	s := &Spec{
		Name:     "watch-behind-breaker",
		Seed:     3,
		Duration: 100, // ~20 arrivals over ~100 wall ms
		Topology: Topology{Count: 1, PEs: 64, CostMin: 0.01, CostMax: 0.01},
		// Jobs run 125-500 ms wall: every job placed before the restart
		// is still running through it.
		Jobs:    JobMix{MinWork: 1000, MaxWork: 2000, MaxPE: 8, DeadlineFraction: &noDeadlines},
		Traffic: []Process{{Kind: "poisson", Rate: 0.2}},
		Grid: GridTuning{
			RPCTimeoutMs:      150,
			BidTimeoutMs:      50,
			SettleRetryMs:     25,
			BreakerThreshold:  1,
			BreakerCooldownMs: 60_000,
			DrainTimeoutMs:    5_000,
		},
	}
	rep, err := RunGridWithHooks(s, GridHooks{MidRun: func(g *grid.Grid) error {
		return g.RestartDaemon(g.Daemons[0].Name())
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("placed=%d rejected=%d finished=%d settled=%d skips=%v wall=%.2fs",
		rep.Placed, rep.Rejected, rep.Finished, rep.Settled, rep.Counters["client.breaker_skips"], rep.WallSeconds)
	if rep.Counters["client.breaker_skips"] == 0 {
		t.Fatal("no auction skipped the restarted daemon: its breaker never opened, nothing was exercised")
	}
	if rep.Placed == 0 {
		t.Fatal("no job was placed before the restart")
	}
	if rep.Finished != rep.Placed || rep.Settled != rep.Finished {
		t.Fatalf("placed %d, finished %d, settled %d: the finish watch lost jobs behind the open breaker",
			rep.Placed, rep.Finished, rep.Settled)
	}
	if rep.WallSeconds >= 5 {
		t.Fatalf("run took %.1fs: it sat out the drain", rep.WallSeconds)
	}
}
