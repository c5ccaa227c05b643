package scenario

import (
	"math"
	"testing"
)

// TestLiveGridMatchesGridsim: the two executors replay the same trace
// (same seed ⇒ same jobs), so what they report about it must agree. It
// did not while the live daemon noticed completions on a 5 ms poll and
// RunGrid observed finishes only after the last arrival: the committed
// live sustained-soak report missed 72.5% of deadlines where gridsim
// missed none.
func TestLiveGridMatchesGridsim(t *testing.T) {
	if testing.Short() {
		t.Skip("live grid run (≈3 s wall)")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the live side only")
	}
	s, err := Load("../../examples/scenarios/sustained-soak.json")
	if err != nil {
		t.Fatal(err)
	}
	s.Duration = 500 // 2.5 s of arrivals at timescale 200, ≈75 jobs
	sim, err := RunSim(s)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunGrid(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gridsim: placed=%d finished=%d miss=%.4f response p50=%.2f p95=%.2f util=%.6f",
		sim.Placed, sim.Finished, sim.DeadlineMissRate, sim.Response.P50, sim.Response.P95, sim.Utilization)
	t.Logf("live:    placed=%d finished=%d miss=%.4f response p50=%.2f p95=%.2f util=%.6f",
		live.Placed, live.Finished, live.DeadlineMissRate, live.Response.P50, live.Response.P95, live.Utilization)

	for _, r := range []*ScenarioReport{sim, live} {
		if r.Placed == 0 || r.Finished != r.Placed {
			t.Errorf("%s: finished %d of %d placed", r.Backend, r.Finished, r.Placed)
		}
	}
	if d := math.Abs(live.DeadlineMissRate - sim.DeadlineMissRate); d > 0.05 {
		t.Errorf("deadline miss rate: live %.4f vs gridsim %.4f", live.DeadlineMissRate, sim.DeadlineMissRate)
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s: live %.4f vs gridsim %.4f, more than %.0f%% apart", name, got, want, tol*100)
		}
	}
	within("response p50", live.Response.P50, sim.Response.P50, 0.15)
	within("response p95", live.Response.P95, sim.Response.P95, 0.15)
	within("utilization", live.Utilization, sim.Utilization, 0.10)
}
