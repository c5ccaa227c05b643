package experiments

import (
	"fmt"
	"sync"

	"faucets/internal/bidding"
	"faucets/internal/gridsim"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

// strategy is scheduler.ByName for the fixed names the tables use.
func strategy(name string) scheduler.Factory {
	f, err := scheduler.ByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

func mustTrace(spec workload.Spec) *workload.Trace {
	tr, err := workload.Generate(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: workload: %v", err))
	}
	return tr
}

// fleet is one reference machine (refSpec) of pe processors per name as a
// gridsim server, each with a fresh bidder from gen (nil: the baseline).
func fleet(pe int, gen func() bidding.Generator, names ...string) []gridsim.ServerConfig {
	out := make([]gridsim.ServerConfig, len(names))
	for i, name := range names {
		out[i].Spec = refSpec(name, pe)
		if gen != nil {
			out[i].Bidder = gen()
		}
	}
	return out
}

// runSim executes one simulation and hands its result to read; a refused
// configuration is a bug in the experiment. The runs share their per-job
// storage through a pool, so the result is valid only inside read.
func runSim(cfg gridsim.Config, trace *workload.Trace, read func(*gridsim.Result)) {
	st := storages.Get().(*gridsim.Storage)
	defer storages.Put(st)
	res, err := st.Run(cfg, trace)
	if err != nil {
		panic(fmt.Sprintf("experiments: run: %v", err))
	}
	read(res)
}

var storages = sync.Pool{New: func() any { return new(gridsim.Storage) }}

// meanResp is a run's mean response time in seconds.
func meanResp(r *gridsim.Result) float64 { return r.Metrics.S("response_time").Mean() }

// totalRevenue sums the named servers' revenues, or every server's.
func totalRevenue(r *gridsim.Result, names ...string) float64 {
	var sum float64
	if len(names) == 0 {
		for _, v := range r.Revenue {
			sum += v
		}
	}
	for _, n := range names {
		sum += r.Revenue[n]
	}
	return sum
}
