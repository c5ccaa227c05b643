// Command faucets-sim drives the discrete-event simulation framework of
// paper §5.4 and regenerates the experiment tables E1–E8 catalogued in
// DESIGN.md and EXPERIMENTS.md.
//
// Usage:
//
//	faucets-sim -experiment all            # run the whole suite
//	faucets-sim -experiment E4 -seed 7     # one experiment, custom seed
//	faucets-sim -gen-trace trace.json -jobs 500 -gap 5
//	faucets-sim -replay trace.json -servers 4 -pe 64 \
//	            -scheduler equipartition -bidder utilization
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"faucets/internal/bidding"
	"faucets/internal/experiments"
	"faucets/internal/gridsim"
	"faucets/internal/machine"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

func main() {
	exp := flag.String("experiment", "all", "experiment id (E1..E8, X1, X2) or 'all'")
	seed := flag.Uint64("seed", 42, "workload seed")
	genTrace := flag.String("gen-trace", "", "write a synthetic workload trace to this file and exit")
	jobs := flag.Int("jobs", 200, "trace jobs (with -gen-trace)")
	gap := flag.Float64("gap", 10, "trace mean interarrival seconds (with -gen-trace)")
	replay := flag.String("replay", "", "replay a saved JSON trace through a simulated grid and exit")
	swf := flag.String("swf", "", "replay a Standard Workload Format log through a simulated grid and exit")
	swfMalleable := flag.Bool("swf-malleable", false, "loosen rigid SWF allocations into adaptive contracts")
	swfMax := flag.Int("swf-max-jobs", 0, "truncate the SWF trace after N jobs (0 = all)")
	servers := flag.Int("servers", 4, "grid size (with -replay)")
	pe := flag.Int("pe", 64, "processors per server (with -replay)")
	sched := flag.String("scheduler", "equipartition", "fcfs, backfill, equipartition, profit (with -replay)")
	bidder := flag.String("bidder", "baseline", "baseline, utilization, weather, history (with -replay)")
	flag.Parse()

	if *genTrace != "" {
		tr, err := workload.Generate(workload.Default(*seed, *jobs, *gap))
		if err != nil {
			log.Fatalf("generate: %v", err)
		}
		if err := tr.Save(*genTrace); err != nil {
			log.Fatalf("save: %v", err)
		}
		fmt.Printf("wrote %d jobs (total work %.0f CPU-seconds) to %s\n",
			len(tr.Items), tr.TotalWork(), *genTrace)
		return
	}
	if *replay != "" {
		tr, err := workload.LoadTrace(*replay)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		runReplay(tr, *replay, *servers, *pe, *sched, *bidder)
		return
	}
	if *swf != "" {
		tr, err := workload.LoadSWF(*swf, workload.SWFOptions{Malleable: *swfMalleable, MaxJobs: *swfMax})
		if err != nil {
			log.Fatalf("swf: %v", err)
		}
		runReplay(tr, *swf, *servers, *pe, *sched, *bidder)
		return
	}

	if strings.EqualFold(*exp, "all") {
		for _, t := range experiments.All(*seed) {
			fmt.Println(t)
		}
		return
	}
	runner := experiments.ByID(*exp)
	if runner == nil {
		log.Fatalf("unknown experiment %q (want E1..E8 or all)", *exp)
	}
	fmt.Println(runner(*seed))
}

// runReplay drives a trace through a uniform simulated grid and prints
// the measurement summary.
func runReplay(tr *workload.Trace, path string, n, pe int, sched, bidder string) {
	factory, err := scheduler.ByName(strings.ToLower(sched))
	if err != nil {
		log.Fatalf("-scheduler: %v", err)
	}
	cfg := gridsim.Config{}
	for i := 0; i < n; i++ {
		// A generator per server; the simulator wires weather and history
		// ones to the grid.
		gen, err := bidding.ByName(strings.ToLower(bidder))
		if err != nil {
			log.Fatalf("-bidder: %v", err)
		}
		cfg.Servers = append(cfg.Servers, gridsim.ServerConfig{
			Spec: machine.Spec{
				Name: fmt.Sprintf("s%03d", i), NumPE: pe, MemPerPE: 2048,
				CPUType: "x86", Speed: 1, CostRate: 0.01,
			},
			NewScheduler: factory,
			Bidder:       gen,
		})
	}
	res, err := gridsim.Run(cfg, tr)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	fmt.Printf("replayed %d jobs from %s on %d×%d-PE grid (%s scheduler, %s bidder)\n",
		len(tr.Items), path, n, pe, sched, bidder)
	fmt.Printf("placed %d  rejected %d  finished %d  end t=%.0fs\n",
		res.Placed, res.Rejected, res.Finished, float64(res.End))
	fmt.Printf("response: %s\n", res.Metrics.S("response_time"))
	fmt.Printf("price:    %s\n", res.Metrics.S("price"))
	var names []string
	for name := range res.Utilization {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-6s util %5.1f%%  revenue $%.2f\n", name, res.Utilization[name]*100, res.Revenue[name])
	}
}
