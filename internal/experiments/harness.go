package experiments

import (
	"fmt"
	"sort"

	"faucets/internal/accounting"
	"faucets/internal/bidding"
	"faucets/internal/gridsim"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/scheduler"
	"faucets/internal/workload"
)

// simServer is a compact server description for experiment configs.
type simServer struct {
	name    string
	pe      int
	speed   float64
	cost    float64
	factory scheduler.Factory
	bidder  bidding.Generator
	home    string
}

// strategy is scheduler.ByName for the fixed names the tables use.
func strategy(name string) scheduler.Factory {
	f, err := scheduler.ByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// simCfg is a compact gridsim configuration for experiment runs.
type simCfg struct {
	servers        []simServer
	schedCfg       scheduler.Config
	criterion      market.Criterion
	mode           accounting.Mode
	singlePhase    bool
	commitDelay    float64
	migrateAfter   float64
	access         map[string][]string
	homeOf         map[string]string
	homeFirst      bool
	initialCredits map[string]float64
	filterFeasible bool
}

// runResult condenses a gridsim result into the quantities experiments
// report.
type runResult struct {
	placed, rejected, finished int
	meanResp, p95Resp          float64
	util                       map[string]float64
	revenue                    map[string]float64
	payoff                     map[string]float64
	credits                    map[string]float64
	meanMult                   float64
	bidMessages                uint64
	screened                   uint64
	commitRefused              uint64
	meanAttempts               float64
	deadlineMet, deadlineMiss  uint64
	migrations                 uint64
	totalPayoff                float64
	raw                        *gridsim.Result
}

func mustTrace(spec workload.Spec) *workload.Trace {
	tr, err := workload.Generate(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: workload: %v", err))
	}
	return tr
}

// runSim executes one simulation and condenses the measurements.
func runSim(c simCfg, trace *workload.Trace) *runResult {
	cfg := gridsim.Config{
		SchedCfg:       c.schedCfg,
		Criterion:      c.criterion,
		Mode:           c.mode,
		SinglePhase:    c.singlePhase,
		CommitDelay:    c.commitDelay,
		MigrateAfter:   c.migrateAfter,
		Access:         c.access,
		HomeOf:         c.homeOf,
		HomeFirst:      c.homeFirst,
		InitialCredits: c.initialCredits,
		FilterFeasible: c.filterFeasible,
	}
	for _, s := range c.servers {
		speed := s.speed
		if speed == 0 {
			speed = 1
		}
		cost := s.cost
		if cost == 0 {
			cost = 0.01
		}
		cfg.Servers = append(cfg.Servers, gridsim.ServerConfig{
			Spec: machine.Spec{
				Name: s.name, NumPE: s.pe, MemPerPE: 2048,
				CPUType: "x86", Speed: speed, CostRate: cost,
			},
			NewScheduler: s.factory,
			Bidder:       s.bidder,
			Home:         s.home,
		})
	}
	res, err := gridsim.Run(cfg, trace)
	if err != nil {
		panic(fmt.Sprintf("experiments: run: %v", err))
	}
	out := &runResult{
		placed:        res.Placed,
		rejected:      res.Rejected,
		finished:      res.Finished,
		meanResp:      res.Metrics.S("response_time").Mean(),
		p95Resp:       res.Metrics.S("response_time").Percentile(95),
		util:          res.Utilization,
		revenue:       res.Revenue,
		payoff:        res.Payoff,
		credits:       res.Credits,
		meanMult:      res.Metrics.S("bid_multiplier").Mean(),
		bidMessages:   res.Metrics.C("messages.bid_req").Value(),
		screened:      res.Metrics.C("filter.screened").Value(),
		commitRefused: res.Metrics.C("commit.refused").Value() + res.Metrics.C("commit.declined").Value(),
		meanAttempts:  res.Metrics.S("award_attempts").Mean(),
		deadlineMet:   res.Metrics.C("deadline.met").Value(),
		migrations:    res.Metrics.C("migrations").Value(),
		deadlineMiss:  res.Metrics.C("deadline.missed").Value(),
		totalPayoff:   res.Metrics.S("payoff").Sum(),
		raw:           res,
	}
	return out
}

// totalRevenue sums server revenues, optionally filtered by a name set.
func (r *runResult) totalRevenue(names ...string) float64 {
	if len(names) == 0 {
		var sum float64
		for _, v := range r.revenue {
			sum += v
		}
		return sum
	}
	var sum float64
	for _, n := range names {
		sum += r.revenue[n]
	}
	return sum
}

// orderRows sorts a table's rows into the given label order (labels not
// listed keep their relative position after the listed ones).
func orderRows(t *Table, order []string) {
	rank := map[string]int{}
	for i, l := range order {
		rank[l] = i
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		ri, iok := rank[t.Rows[i].Label]
		rj, jok := rank[t.Rows[j].Label]
		if iok && jok {
			return ri < rj
		}
		return iok && !jok
	})
}
