// Bartering: the cooperative-computing context of paper §5.5.3. A small
// overloaded cluster and two large helpers pool resources; each user's
// jobs try the Home Cluster first and overflow to collaborators, paying
// with credits instead of cash. "Each contributor earns credit for
// sharing his/her resource and can use up the credit when needed."
package main

import (
	"fmt"
	"log"
	"sort"

	"faucets/internal/accounting"
	"faucets/internal/gridsim"
	"faucets/internal/machine"
	"faucets/internal/workload"
)

func main() {
	spec := workload.Default(7, 150, 2)
	spec.MaxPE = 16
	trace, err := workload.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	servers := []gridsim.ServerConfig{
		{Spec: machine.Spec{Name: "overloaded", NumPE: 8, MemPerPE: 2048, Speed: 1, CostRate: 0.01}},
		{Spec: machine.Spec{Name: "helper-1", NumPE: 48, MemPerPE: 2048, Speed: 1, CostRate: 0.01}},
		{Spec: machine.Spec{Name: "helper-2", NumPE: 48, MemPerPE: 2048, Speed: 1, CostRate: 0.01}},
	}
	// Every user calls the small cluster home.
	homeOf := map[string]string{}
	lockedAccess := map[string][]string{}
	for u := 0; u < 7; u++ {
		user := fmt.Sprintf("user-%d", u)
		homeOf[user] = "overloaded"
		lockedAccess[user] = []string{"overloaded"}
	}

	noShare, err := gridsim.Run(gridsim.Config{
		Servers: servers, Mode: accounting.Barter,
		HomeOf: homeOf, Access: lockedAccess,
	}, trace)
	if err != nil {
		log.Fatal(err)
	}
	shared, err := gridsim.Run(gridsim.Config{
		Servers: servers, Mode: accounting.Barter,
		HomeOf: homeOf, HomeFirst: true,
		InitialCredits: map[string]float64{"overloaded": 100000},
	}, trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== no sharing (users locked to their home cluster) ===")
	report(noShare)
	fmt.Println("\n=== bartering (home first, overflow to collaborators for credits) ===")
	report(shared)

	fmt.Println("\ncredit ledger after the bartering run:")
	var clusters []string
	for c := range shared.Credits {
		clusters = append(clusters, c)
	}
	sort.Strings(clusters)
	for _, c := range clusters {
		fmt.Printf("  %-12s %10.1f credits\n", c, shared.Credits[c])
	}
	fmt.Println("\nThe overloaded cluster bought relief with credits its collaborators")
	fmt.Println("can spend later — resource pooling with no money changing hands (§5.5.3).")
}

func report(res *gridsim.Result) {
	fmt.Printf("placed %d, rejected %d, mean response %.0fs, p95 %.0fs\n",
		res.Placed, res.Rejected,
		res.Metrics.S("response_time").Mean(),
		res.Metrics.S("response_time").Percentile(95))
	var names []string
	for n := range res.Utilization {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-12s utilization %5.1f%%\n", n, res.Utilization[n]*100)
	}
}
