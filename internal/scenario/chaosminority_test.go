package scenario

import "testing"

// TestChaosMinorityLive runs the committed chaos-minority spec live over
// three seeds: two of ten daemons trickle every reply byte, and the
// client's breakers must keep them from costing every auction a bid
// timeout. Each run must account for every job it ran — every placed
// job seen to finish, and the report's finished and settled counts
// equal to the daemons' and the Central Server's own counters — and
// none may sit out its drain. Unraced, the p99 time-to-contract must
// stay under 1.6 bid timeouts: one sick daemon forfeiting a full
// timeout before its breaker opens is the tail, two in a row is not.
func TestChaosMinorityLive(t *testing.T) {
	base, err := Load("../../examples/scenarios/chaos-minority.json")
	if err != nil {
		t.Fatal(err)
	}
	drain := msOr(base.Grid.DrainTimeoutMs, 30_000).Seconds()
	for _, seed := range []uint64{11, 12, 13} {
		s := *base
		s.Seed = seed
		rep, err := RunGrid(&s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: placed=%d/%d finished=%d settled=%d ttc p50=%.1fms p99=%.1fms miss=%.3f skips=%v wall=%.2fs",
			seed, rep.Placed, rep.Jobs, rep.Finished, rep.Settled, rep.TTC.P50, rep.TTC.P99,
			rep.DeadlineMissRate, rep.Counters["client.breaker_skips"], rep.WallSeconds)
		if rep.Placed == 0 {
			t.Fatalf("seed %d: nothing placed", seed)
		}
		if rep.Finished != rep.Placed {
			t.Errorf("seed %d: placed %d, finished %d: the finish watch lost jobs", seed, rep.Placed, rep.Finished)
		}
		// A Start whose answer is lost (a timeout under the race
		// detector's load) is counted rejected, yet the daemon runs the
		// job: submit is at-least-once. The counters may exceed the
		// report by those jobs and no more.
		slack := float64(rep.Rejected)
		if got, n := rep.Counters["daemon.jobs_finished"], float64(rep.Finished); got < n || got > n+slack {
			t.Errorf("seed %d: report finished %d (%d rejected), daemons finished %v", seed, rep.Finished, rep.Rejected, got)
		}
		if got, n := rep.Counters["central.jobs_settled"], float64(rep.Settled); got < n || got > n+slack {
			t.Errorf("seed %d: report settled %d (%d rejected), Central Server settled %v", seed, rep.Settled, rep.Rejected, got)
		}
		if rep.WallSeconds >= drain {
			t.Errorf("seed %d: run took %.1fs, it reached the %.0fs drain", seed, rep.WallSeconds, drain)
		}
		if bound := 1.6 * base.Grid.BidTimeoutMs; !raceEnabled && rep.TTC.P99 >= bound {
			t.Errorf("seed %d: TTC p99 %.1fms, want < %.0fms", seed, rep.TTC.P99, bound)
		}
	}
}
