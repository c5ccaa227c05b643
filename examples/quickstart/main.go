// Quickstart: boot a complete live Faucets grid on loopback (Central
// Server + AppSpector + three Compute Server daemons, paper Fig 1),
// submit a job with a QoS contract through the market, watch it run via
// AppSpector, and download its output — the full end-user flow of §2.
package main

import (
	"fmt"
	"log"
	"time"

	"faucets/internal/grid"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

func main() {
	// Three Compute Servers with different sizes and prices. TimeScale
	// 1000 compresses one virtual second into a millisecond so the demo
	// finishes instantly.
	sys, err := grid.Start([]grid.ClusterSpec{
		{Spec: machine.Spec{Name: "turing", NumPE: 64, MemPerPE: 2048, CPUType: "x86", Speed: 1.0, CostRate: 0.010}, Apps: []string{"synth", "namd"}},
		{Spec: machine.Spec{Name: "lemieux", NumPE: 128, MemPerPE: 4096, CPUType: "alpha", Speed: 1.2, CostRate: 0.008}, Apps: []string{"synth"}},
		{Spec: machine.Spec{Name: "tungsten", NumPE: 32, MemPerPE: 1024, CPUType: "x86", Speed: 0.9, CostRate: 0.020}, Apps: []string{"synth", "cfd"}},
	}, grid.Options{
		Users:     map[string]string{"alice": "secret"},
		TimeScale: 1000,
	})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer sys.Close()
	fmt.Println("grid up: central =", sys.CentralAddr, " appspector =", sys.AppSpectorAddr)

	// Authenticate and look around (Fig 2's server list).
	cl, err := sys.Login("alice", "secret")
	if err != nil {
		log.Fatalf("login: %v", err)
	}
	servers, _ := cl.ListServers(nil)
	for _, s := range servers {
		fmt.Printf("  server %-10s %4d PEs  $%.3f/CPUs  apps=%v\n",
			s.Spec.Name, s.Spec.NumPE, s.Spec.CostRate, s.Apps)
	}

	// A QoS contract (§2.1): 4–32 processors, an hour of reference work,
	// efficiency falling from 95% to 75% across the range, and a payoff
	// function with soft and hard deadlines.
	contract := &qos.Contract{
		App: "synth", MinPE: 4, MaxPE: 32, Work: 3600,
		EffMin: 0.95, EffMax: 0.75,
		Payoff: qos.Payoff{Soft: 600, Hard: 1200, AtSoft: 50, AtHard: 10, Penalty: 20},
	}

	// Market selection (§5): every matching daemon bids; least cost wins.
	p, err := cl.Place(contract, market.LeastCost{})
	if err != nil {
		log.Fatalf("place: %v", err)
	}
	fmt.Printf("\njob %s awarded to %s for $%.2f (multiplier %.2f)\n",
		p.JobID, p.Server.Spec.Name, p.Bid.Price, p.Bid.Multiplier)

	// Upload input, start, and watch the Fig 3 display.
	if err := cl.Upload(p, "in.dat", []byte("initial coordinates")); err != nil {
		log.Fatalf("upload: %v", err)
	}
	if err := cl.Start(p); err != nil {
		log.Fatalf("start: %v", err)
	}
	fmt.Println("\nAppSpector stream:")
	err = cl.Watch(p.JobID, true, func(t protocol.Telemetry) bool {
		fmt.Printf("  [t=%6.1f] %-9s pes=%-3d util=%4.0f%% done=%5.1f%%\n",
			t.Time, t.State, t.PEs, t.Util*100, t.Done*100)
		return true
	})
	if err != nil {
		log.Fatalf("watch: %v", err)
	}

	st, err := cl.WaitFinished(p, 30*time.Second)
	if err != nil {
		log.Fatalf("wait: %v", err)
	}
	out, err := cl.FetchOutput(p, "result.out")
	if err != nil {
		log.Fatalf("fetch: %v", err)
	}
	fmt.Printf("\njob %s %s; result.out: %s", p.JobID, st.State, out)
}
