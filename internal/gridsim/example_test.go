package gridsim_test

import (
	"fmt"

	"faucets/internal/bidding"
	"faucets/internal/gridsim"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

// ExampleRun runs the paper's §5.4 discrete-event simulation over a
// small synthetic workload and reports the headline statistics.
func ExampleRun() {
	trace, err := workload.Generate(workload.Default(42, 20, 50))
	if err != nil {
		panic(err)
	}
	equipartition, err := scheduler.ByName("equipartition")
	if err != nil {
		panic(err)
	}
	res, err := gridsim.Run(gridsim.Config{
		Servers: []gridsim.ServerConfig{{
			Spec:         machine.Spec{Name: "hpc", NumPE: 64, MemPerPE: 2048, Speed: 1, CostRate: 0.01},
			NewScheduler: equipartition,
			Bidder:       bidding.Baseline{},
		}},
		Criterion: market.LeastCost{},
	}, trace)
	if err != nil {
		panic(err)
	}
	fmt.Printf("placed=%d finished=%d rejected=%d\n", res.Placed, res.Finished, res.Rejected)
	// Output: placed=20 finished=20 rejected=0
}
