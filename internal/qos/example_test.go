package qos_test

import (
	"fmt"

	"faucets/internal/qos"
)

// ExampleContract shows a quality-of-service contract (§2.1) with an
// efficiency curve and a soft/hard-deadline payoff function.
func ExampleContract() {
	c := &qos.Contract{
		App:   "namd",
		MinPE: 8, MaxPE: 64,
		Work:   7200, // CPU-seconds on the reference machine
		EffMin: 0.95, EffMax: 0.70,
		Payoff: qos.Payoff{Soft: 900, Hard: 1800, AtSoft: 120, AtHard: 30, Penalty: 60},
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	fmt.Printf("wall time on 64 PEs: %.0fs\n", c.ExecTime(64, 1.0))
	fmt.Printf("payoff if done in 600s: $%.0f\n", c.Payoff.Value(600))
	fmt.Printf("payoff if done in 2000s: $%.0f\n", c.Payoff.Value(2000))
	// Output:
	// wall time on 64 PEs: 161s
	// payoff if done in 600s: $120
	// payoff if done in 2000s: $-60
}
