package grid

import (
	"testing"
	"time"

	"faucets/internal/market"
	"faucets/internal/qos"
)

// TestPlaceBatchGrid drives the batched solicit path against a live
// two-daemon grid: one bid_batch_req frame per daemon, per-contract
// awards, and a slate whose members land on different daemons.
func TestPlaceBatchGrid(t *testing.T) {
	g, err := Start([]ClusterSpec{
		{Spec: spec("smallfd", 64, 0.010), Apps: []string{"synth"}},
		{Spec: spec("bigfd", 128, 0.008), Apps: []string{"synth", "solo"}},
	}, Options{Users: map[string]string{"alice": "pw"}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cl, err := g.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	slate := []*qos.Contract{
		{App: "synth", MinPE: 2, MaxPE: 8, Work: 50},
		{App: "solo", MinPE: 1, MaxPE: 4, Work: 10},
		{App: "nosuchapp", MinPE: 1, MaxPE: 2, Work: 5},
	}
	res, err := cl.PlaceBatch(slate, market.LeastCost{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(slate) {
		t.Fatalf("got %d results, want %d", len(res), len(slate))
	}
	if res[0].Err != nil || res[0].Placement == nil {
		t.Fatalf("synth contract failed: %v", res[0].Err)
	}
	if res[1].Err != nil || res[1].Placement == nil {
		t.Fatalf("solo contract failed: %v", res[1].Err)
	}
	if got := res[1].Placement.Server.Spec.Name; got != "bigfd" {
		t.Fatalf("solo contract landed on %s, want bigfd", got)
	}
	if res[2].Err == nil {
		t.Fatal("unknown app placed — expected a per-contract error")
	}
	// Batch failures are isolated: both placeable jobs must run.
	for i := 0; i < 2; i++ {
		if err := cl.Start(res[i].Placement); err != nil {
			t.Fatalf("start batch job %d: %v", i, err)
		}
		if _, err := cl.WaitFinished(res[i].Placement, 10*time.Second); err != nil {
			t.Fatalf("batch job %d never finished: %v", i, err)
		}
	}
}
